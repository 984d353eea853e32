(* Child daemons for the benchmark: spawn `lcp serve` / `lcp route` on
   an ephemeral port, learn the bound port from the startup banner on
   the child's stdout (no connect polling), read the child's CPU and
   peak RSS from /proc, and shut it down with SIGINT. *)

type t = { pid : int; port : int; out : Unix.file_descr }

let live : t list ref = ref []

(* Read one '\n'-terminated line from [fd], giving up after
   [timeout_s]; [None] on EOF or timeout. Unbuffered on purpose: the
   descriptor stays open after the banner and nothing else is read. *)
let read_line fd ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Buffer.create 160 and byte = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
          match Unix.read fd byte 0 1 with
          | 0 -> None
          | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents buf)
          | _ ->
              Buffer.add_char buf (Bytes.get byte 0);
              go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* The port after the last ':' of the first HOST:PORT token, e.g. from
   "lcp: serving 29 schemes on 127.0.0.1:40123 (jobs 1, ...". *)
let banner_port line =
  let words = String.split_on_char ' ' line in
  List.find_map
    (fun w ->
      match String.rindex_opt w ':' with
      | Some i when i > 0 && i < String.length w - 1 ->
          int_of_string_opt (String.sub w (i + 1) (String.length w - i - 1))
      | _ -> None)
    words

let spawn ~lcp ~prefix args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (lcp :: args) in
  let pid = Unix.create_process lcp argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let fail msg =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    Unix.close r;
    failwith msg
  in
  match read_line r ~timeout_s:30. with
  | None -> fail (Printf.sprintf "%s %s: no banner" lcp (List.hd args))
  | Some line when not (String.starts_with ~prefix line) ->
      fail (Printf.sprintf "unexpected banner: %s" line)
  | Some line -> (
      match banner_port line with
      | None -> fail (Printf.sprintf "no port in banner: %s" line)
      | Some port ->
          let p = { pid; port; out = r } in
          live := p :: !live;
          p)

let serve ~lcp ~metrics =
  spawn ~lcp ~prefix:"lcp: serving"
    ([ "serve"; "--port"; "0"; "--jobs"; "1" ]
    @ if metrics then [ "--metrics" ] else [])

let route ~lcp backends =
  spawn ~lcp ~prefix:"lcp: routing"
    ("route" :: "--port" :: "0"
    :: List.concat_map
         (fun b -> [ "--backend"; Printf.sprintf "127.0.0.1:%d" b.port ])
         backends)

let rec wait_gone pid ~deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.005;
        wait_gone pid ~deadline
      end
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_gone pid ~deadline
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

(* SIGINT every child (routers first, so none forwards to a stopped
   backend), then reap each, escalating to SIGKILL after 10 s. *)
let stop_all procs =
  List.iter
    (fun p -> try Unix.kill p.pid Sys.sigint with Unix.Unix_error _ -> ())
    procs;
  List.iter
    (fun p ->
      wait_gone p.pid ~deadline:(Unix.gettimeofday () +. 10.);
      (try Unix.close p.out with Unix.Unix_error _ -> ());
      live := List.filter (fun q -> q.pid <> p.pid) !live)
    procs

let () = at_exit (fun () -> stop_all !live)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> In_channel.input_all ic)

(* utime + stime of [pid] in milliseconds (fields 14 and 15 of
   /proc/PID/stat, after the parenthesised command name), assuming the
   usual 100 Hz USER_HZ. *)
let cpu_ms pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex s ')' + 2 in
  let fields =
    String.split_on_char ' ' (String.sub s after (String.length s - after))
  in
  (* [fields] starts at field 3 (state), so utime and stime (fields 14
     and 15) sit at positions 11 and 12 *)
  let f i = float_of_string (List.nth fields i) in
  (f 11 +. f 12) *. 10.

(* A "Key:   123 kB" line of /proc/PID/status, in kB. *)
let status_kb pid key =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix:(key ^ ":") line then
        String.split_on_char ' ' line
        |> List.filter (fun w -> w <> "" && w.[0] >= '0' && w.[0] <= '9')
        |> function
        | w :: _ -> float_of_string_opt w
        | [] -> None
      else None)
    (String.split_on_char '\n' s)
  |> Option.value ~default:0.

(* Bytes this process moved through read/write syscalls so far —
   sockets included, so frames built inside Fanout count too. *)
let self_io_bytes () =
  let s = read_file "/proc/self/io" in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ ("rchar:" | "wchar:"); v ] -> acc +. float_of_string v
      | _ -> acc)
    0.
    (String.split_on_char '\n' s)

(* The host's share of this machine's CPU time it kept for itself
   (steal), from the aggregate line of /proc/stat: [steal_ticks ()]
   returns (steal, total) ticks so far. *)
let steal_ticks () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | line :: _ -> (
      let ticks =
        String.split_on_char ' ' line
        |> List.filter (fun w -> w <> "" && w <> "cpu")
        |> List.map float_of_string
      in
      match ticks with
      | _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          (steal, List.fold_left ( +. ) 0. ticks)
      | _ -> (0., 0.))
  | [] -> (0., 0.)
