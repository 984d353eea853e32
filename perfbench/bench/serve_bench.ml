(* The serving benchmark client: spawns a real `lcp serve` process,
   drives it through the public Client API, checks every reply against
   an in-process oracle, and prints one JSON result line.

     serve_bench.exe --lcp PATH --workload NAME --seed N --seconds S
                [--trace 0|1]

   Each run has two phases of fixed op counts (the workload's settings
   in Inputs.workloads), so two builds compute every percentile over
   the same number of samples; both run in chunks, interleaved over
   the run:
   - paced: open loop, op i of a chunk due at t0 + i/rate, timed from
     when it was due (rate x S/2 ops);
   - saturate: closed loop, back to back (sat_rate x S/2 ops).
   With --trace 0 the result holds the end-to-end metrics; with
   --trace 1 it holds the per-layer metrics of a separately traced
   run, which also sends the workload's instances through
   Fanout.verify and `lcp route` over two more daemons. Exits 1 when
   any reply fails its oracle. *)

open Inputs

(* Fanout.verify's shard count in the traced run's cluster pass. *)
let shards = 2

let now = Obs.Clock.now_ns
let ms_of_ns ns = float_of_int ns /. 1e6
let us_of_ns ns = float_of_int ns /. 1e3
let kib n = float_of_int n /. 1024.

let time_ns f =
  let t0 = now () in
  let r = f () in
  (r, now () - t0)

(* {1 Options} *)

let lcp = ref ""
let workload = ref ""
let seed = ref 1
let seconds = ref 20.
let traced = ref 0
let trace_out = ref ""

let spec =
  [
    ("--lcp", Arg.Set_string lcp, "PATH the lcp executable");
    ("--workload", Arg.Set_string workload, "NAME hot-small | warm-large");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S nominal measuring time");
    ("--trace", Arg.Set_int traced, "0|1 end-to-end run or traced per-layer run");
    ("--trace-out", Arg.Set_string trace_out, "FILE write the client's spans here (traced run)");
  ]

(* {1 Service} *)

(* One daemon and the client's connections to it: two, one per CPU of
   the machine the rates were set on. *)
type service = { daemon : Procs.t; conns : Client.t array }

let connect port =
  match Client.connect ~port () with
  | Ok c -> c
  | Error m -> failwith ("connect: " ^ m)

(* {1 Running one op} *)

let check expect resp =
  match (expect, resp) with
  | Valid_proof _, Wire.Proved (Some p) -> Ok (Some p)
  | Verdict rj, Wire.Verified { accepted; rejecting } ->
      if accepted = (rj = []) && rejecting = rj then Ok None else Error "wrong_answer"
  | Sampled_reply { escalated; rejecting }, Wire.Sampled_verified s ->
      if s.escalated = escalated && s.accepted = (rejecting = []) && s.rejecting = rejecting
      then Ok None
      else Error "wrong_answer"
  | _, Wire.Error_reply { code; _ } -> Error (Wire.error_code_to_string code)
  | _ -> Error "wrong_answer"

type result = {
  lat_ns : int;  (** Completion minus due time. *)
  late_ns : int;  (** Send time minus due time: generator lateness. *)
  outcome : (Proof.t option, string) Stdlib.result;
  reply : Wire.response option;  (** Kept in the traced run only. *)
}

let run_op ~keep conn op =
  match Obs.Trace.span "client.call" (fun () -> Client.call conn op.req) with
  | Error _ -> (Error "transport", None)
  | Ok resp -> (check op.expect resp, if keep then Some resp else None)

(* Run [ops] over the service's connections, op i on connection
   i mod c. With [due] the loop is open: op i waits until [due i] and
   is timed from it; without, each connection sends back to back. *)
let run_phase ?(keep = false) ?due svc ops =
  let n = Array.length ops and c = Array.length svc.conns in
  let res =
    Array.make n { lat_ns = 0; late_ns = 0; outcome = Error "not run"; reply = None }
  in
  let worker j =
    let i = ref j in
    while !i < n do
      let t_due =
        match due with
        | None -> now ()
        | Some d ->
            let t = d !i and t_now = now () in
            if t > t_now then Unix.sleepf (float_of_int (t - t_now) *. 1e-9);
            t
      in
      let t_send = now () in
      let outcome, reply = run_op ~keep svc.conns.(j) ops.(!i) in
      res.(!i) <- { lat_ns = now () - t_due; late_ns = t_send - t_due; outcome; reply };
      i := !i + c
    done
  in
  let threads = List.init c (fun j -> Thread.create worker j) in
  List.iter Thread.join threads;
  res

(* Prove replies are checked after the phase, off the clock. *)
let failures ops res =
  let tally = Hashtbl.create 8 in
  Array.iteri
    (fun i r ->
      let bad =
        match (r.outcome, ops.(i).expect) with
        | Ok (Some p), Valid_proof ok -> if ok p then None else Some "wrong_answer"
        | Ok _, _ -> None
        | Error e, _ -> Some e
      in
      Option.iter
        (fun e -> Hashtbl.replace tally e (1 + Option.value ~default:0 (Hashtbl.find_opt tally e)))
        bad)
    res;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally [] |> List.sort compare

(* {1 Set-up} *)

let setup w ~metrics =
  let t0 = now () in
  let daemon = Procs.serve ~lcp:!lcp ~metrics in
  let svc = { daemon; conns = Array.init 2 (fun _ -> connect daemon.Procs.port) } in
  let res = run_phase svc w.warmup in
  (match failures w.warmup res with
  | [] -> ()
  | (e, _) :: _ -> failwith ("warm-up op failed: " ^ e));
  (svc, float_of_int (now () - t0) /. 1e9)

let teardown svc =
  Array.iter Client.close svc.conns;
  Procs.stop_all [ svc.daemon ]

let cpu_ms svc = Procs.cpu_ms svc.daemon.Procs.pid

(* {1 Output} *)

type metric = { name : string; value : float; unit : string }

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let report_failures phase ops res =
  let f = failures ops res in
  let nfailed = List.fold_left (fun a (_, n) -> a + n) 0 f in
  Printf.printf "%s: %d attempted, %d ok, %d failed%s\n" phase (Array.length ops)
    (Array.length ops - nfailed) nfailed
    (String.concat ""
       (List.map (fun (e, n) -> Printf.sprintf " %s=%d" e n) f));
  nfailed

(* A latency percentile in ms, refused below the sample floor. *)
let pct_ms label p samples =
  match Stat.percentile p (Array.map float_of_int samples) with
  | None ->
      failwith
        (Printf.sprintf "%s: p%g over %d samples has fewer than %d beyond it" label
           p (Array.length samples) Stat.min_beyond)
  | Some s ->
      Printf.printf "  %-14s p%g = %.4f ms over %d samples (%d beyond)\n" label p
        (s.Stat.value /. 1e6) s.Stat.count s.Stat.beyond;
      s.Stat.value /. 1e6

(* {1 End-to-end run} *)

let half_count r = max 1 (int_of_float (Float.round (r *. !seconds /. 2.)))

(* The timed phases run in [rounds] rounds spread over the run. Each
   round times one more set-up (of a throwaway daemon), runs a chunk of
   the paced phase on the warm daemon, then a slice of the saturate
   phase. A slow spell of the host that covers part of a run then moves
   a few rounds, not a whole metric: setup_s, ops_per_s and
   server_cpu_ms_per_op are medians over rounds, and the latency
   percentiles pool every chunk. The host's steal share over the timed
   phases is printed. *)
let rounds = 8

(* The paced-phase percentile reported as tail_ms: the highest that
   repeated within the bound on both workloads (p95 spread 0.31 over
   ten hot-small runs when the host's steal share rose to 2-8%). *)
let tail = 90.

(* Chunk [k] of [rounds] contiguous chunks of [ops]. *)
let part ops k =
  let n = Array.length ops in
  Array.sub ops (k * n / rounds) (((k + 1) * n / rounds) - (k * n / rounds))

let end_to_end (wl : workload) w =
  let svc, setup0 = setup w ~metrics:false in
  let interval = 1e9 /. wl.rate in
  let stolen = ref 0. and ticks = ref 0. in
  let round k =
    let probe, setup_s = setup w ~metrics:false in
    teardown probe;
    let s0 = Procs.steal_ticks () in
    let t0 = now () + 1_000_000 in
    let paced =
      run_phase ~due:(fun i -> t0 + int_of_float (float_of_int i *. interval)) svc (part w.paced k)
    in
    let ops = part w.saturate k in
    let cpu0 = cpu_ms svc and io0 = Procs.self_io_bytes () in
    let res, ns = time_ns (fun () -> run_phase svc ops) in
    let io = Procs.self_io_bytes () -. io0 and cpu = cpu_ms svc -. cpu0 in
    let s1 = Procs.steal_ticks () in
    stolen := !stolen +. (fst s1 -. fst s0);
    ticks := !ticks +. (snd s1 -. snd s0);
    (setup_s, paced, (ops, res, ns, cpu), io)
  in
  let rs = List.init rounds round in
  let steal = !stolen /. Float.max 1. !ticks in
  let rss_mb = Procs.status_kb svc.daemon.Procs.pid "VmHWM" /. 1024. in
  teardown svc;
  let setup_times = Array.of_list (setup0 :: List.map (fun (s, _, _, _) -> s) rs) in
  let paced = Array.concat (List.map (fun (_, p, _, _) -> p) rs) in
  let slices = List.map (fun (_, _, sl, _) -> sl) rs in
  let io_bytes = List.fold_left (fun a (_, _, _, io) -> a +. io) 0. rs in
  let nsat = Array.length w.saturate in
  let failed =
    report_failures "paced" w.paced paced
    + report_failures "saturate" w.saturate
        (Array.concat (List.map (fun (_, r, _, _) -> r) slices))
  in
  let slice_median f = Stat.median (Array.of_list (List.map f slices)) in
  let ops_per_s =
    slice_median (fun (ops, res, ns, _) ->
        let failed = List.fold_left (fun a (_, n) -> a + n) 0 (failures ops res) in
        float_of_int (Array.length ops - failed) /. (float_of_int ns /. 1e9))
  and cpu_per_op = slice_median (fun (ops, _, _, cpu) -> cpu /. float_of_int (Array.length ops)) in
  let lat kind =
    Array.of_list
      (List.filteri (fun i _ -> kind = None || Some w.paced.(i).kind = kind) (Array.to_list paced)
      |> List.map (fun r -> r.lat_ns))
  in
  let late = Array.map (fun r -> float_of_int r.late_ns /. 1e6) paced in
  Array.sort compare late;
  Printf.printf "paced: %d ops at %.1f/s; generator lateness p50 %.3f ms, max %.3f ms\n"
    (Array.length w.paced) wl.rate
    late.(Array.length late / 2)
    late.(Array.length late - 1);
  let m name value unit = { name; value; unit } in
  List.iter
    (fun p ->
      Option.iter
        (fun s -> Printf.printf "  paced p%g = %.4f ms (%d beyond)\n" p (s.Stat.value /. 1e6) s.Stat.beyond)
        (Stat.percentile p (Array.map float_of_int (lat None))))
    [ 75.; 80.; 90.; 95.; 98.; 99. ];
  let p50 = pct_ms "p50_ms" 50. (lat None) in
  let tail_ms = pct_ms "tail_ms" tail (lat None) in
  let per_kind k = pct_ms (kind_name k ^ "_p50_ms") 50. (lat (Some k)) in
  let prove = per_kind Prove and verify = per_kind Verify and sampled = per_kind Sampled in
  let metrics =
    [
      m "setup_s" (Stat.median setup_times) "s";
      m "ops_per_s" ops_per_s "ops/s";
      m "p50_ms" p50 "ms";
      m "tail_ms" tail_ms "ms";
      m "prove_p50_ms" prove "ms";
      m "verify_p50_ms" verify "ms";
      m "sampled_p50_ms" sampled "ms";
      m "server_cpu_ms_per_op" cpu_per_op "ms";
      m "server_rss_mb" rss_mb "MiB";
      m "wire_kb_per_op" (io_bytes /. 1024. /. float_of_int nsat) "KiB";
    ]
  in
  Printf.printf "host steal during the timed phases: %.2f%% of CPU time\n" (100. *. steal);
  Printf.printf "setup_s: median of %d set-ups, the first and one per round [%s]\n" (Array.length setup_times)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_times)));
  List.iter (fun x -> Printf.printf "%-22s %14.4f %s\n" x.name x.value x.unit) metrics;
  (Array.length w.paced + nsat, failed, metrics)

(* {1 Traced run} *)

(* Prometheus text -> (name{labels}, value) pairs. *)
let scrape port =
  let c = connect port in
  let r = Client.call c Wire.Metrics_text in
  Client.close c;
  match r with
  | Ok (Wire.Metrics_text_reply text) ->
      List.filter_map
        (fun line ->
          if line = "" || line.[0] = '#' then None
          else
            match String.rindex_opt line ' ' with
            | None -> None
            | Some i ->
                Option.map
                  (fun v -> (String.sub line 0 i, v))
                  (float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))))
        (String.split_on_char '\n' text)
  | _ -> failwith "metrics scrape failed"

(* A sample by its exact name (labels included); 0 when absent. *)
let get samples name =
  match List.assoc_opt name samples with
  | Some v -> v
  | None -> 0.

let labelled samples name =
  List.filter_map
    (fun (k, v) -> if String.starts_with ~prefix:(name ^ "{") k then Some v else None)
    samples

(* Fanout + Router on the workload's own instances: each distinct
   instance of [ops] verified as two shards through `lcp route` over two
   fresh daemons, checked against the oracle. Returns the Fanout call
   times (ms), the router's per-backend request counts and retries over
   the pass, and the number of wrong or failed verdicts. *)
let cluster_pass ops =
  let backends = List.init 2 (fun _ -> Procs.serve ~lcp:!lcp ~metrics:false) in
  let router = Procs.route ~lcp:!lcp backends in
  Fun.protect ~finally:(fun () -> Procs.stop_all (router :: backends)) @@ fun () ->
  let before = scrape router.Procs.port in
  let seen = Hashtbl.create 64 in
  let times = ref [] and failed = ref 0 in
  Array.iter
    (fun op ->
      let key = (op.inst_id, op.proof == op.inst.valid) in
      if op.kind <> Prove && not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        let inst = op.inst in
        let rj = Inputs.rejecting inst op.proof in
        let r, t =
          time_ns (fun () ->
              Obs.Trace.span "fanout.verify" (fun () ->
                  Fanout.verify ~port:router.Procs.port ~scheme:inst.scheme
                    ~csr:(Simulator.compiled_csr inst.compiled) ~proof:op.proof
                    ~radius:inst.sch.Scheme.radius ~k:shards ()))
        in
        times := ms_of_ns t :: !times;
        match r with
        | Ok v
          when v.Fanout.rejected = List.length rj
               && v.Fanout.rejecting = take 64 (List.sort_uniq compare rj) -> ()
        | Ok _ -> incr failed
        | Error m ->
            prerr_endline ("fanout: " ^ m);
            incr failed
      end)
    ops;
  let after = scrape router.Procs.port in
  let per_backend =
    List.map2 ( -. )
      (labelled after "lcp_router_backend_requests_total")
      (labelled before "lcp_router_backend_requests_total")
  in
  let retries = get after "lcp_router_retries_total" -. get before "lcp_router_retries_total" in
  (!times, per_backend, retries, !failed)

let traced_run w =
  let ops = w.saturate in
  let nops = Array.length ops in
  (* The same ops run on an untraced reference daemon and on a traced
     one (client spans on, the daemon with --metrics), alternating
     chunk by chunk; the tracing overhead is the median over chunks of
     traced over untraced time, minus 1, so a slow spell of the host
     moves a chunk rather than the ratio. *)
  let c0, _ = setup w ~metrics:false in
  Obs.Trace.set_capacity 262_144;
  Obs.enable ~metrics:false ~trace:true ();
  let c, _ = setup w ~metrics:true in
  let d0 = scrape c.daemon.Procs.port in
  let chunks =
    List.init rounds (fun k ->
        let chunk = part ops k in
        Obs.Trace.enabled := false;
        let _, base_ns = time_ns (fun () -> run_phase c0 chunk) in
        Obs.Trace.enabled := true;
        let res, traced_ns = time_ns (fun () -> run_phase ~keep:true c chunk) in
        (res, float_of_int traced_ns /. float_of_int base_ns))
  in
  let d1 = scrape c.daemon.Procs.port in
  teardown c0;
  teardown c;
  let res = Array.concat (List.map fst chunks) in
  let failed = report_failures "traced" ops res in
  let overhead = Stat.median (Array.of_list (List.map snd chunks)) -. 1. in
  let daemon name = get d1 name -. get d0 name in
  let ratio a b = if b = 0. then 0. else a /. b in
  let hits = daemon "lcp_server_cache_hits_total"
  and misses = daemon "lcp_server_cache_misses_total" in
  let busy = daemon "lcp_pool_busy_ns_total" and idle = daemon "lcp_pool_idle_ns_total" in
  let sampled_req = daemon "lcp_sampled_requests_total" in
  (* client-side wire costs, over the traced phase *)
  let enc = ref [] and dec = ref [] and req_b = ref [] and rep_b = ref [] in
  Array.iteri
    (fun i op ->
      Option.iter
        (fun resp ->
          let frame, e =
            time_ns (fun () -> Obs.Trace.span "wire.encode" (fun () -> Wire.encode_request op.req))
          in
          let rframe = Wire.encode_response resp in
          let _, d =
            time_ns (fun () -> Obs.Trace.span "wire.decode" (fun () -> Wire.decode_response rframe))
          in
          enc := us_of_ns e :: !enc;
          dec := us_of_ns d :: !dec;
          req_b := kib (String.length frame) :: !req_b;
          rep_b := kib (String.length rframe) :: !rep_b)
        res.(i).reply)
    ops;
  (* in-process replay of the server-side layers on the same inputs:
     per distinct instance the graph6 round trip and compile the daemon
     skips on a cache hit, the two-way cut and its per-shard sweeps;
     per op its compute, which the op's round trip is compared against *)
  let cap = min nops 300 in
  let seen = Hashtbl.create 64 in
  let g6_enc = ref [] and g6_dec = ref [] and compile = ref [] and verify = ref [] in
  let verify_on = ref [] and part = ref [] and ghost = ref [] and prove = ref [] in
  let run_us = ref [] and overhead_us = ref [] in
  let span name f = time_ns (fun () -> Obs.Trace.span name f) in
  for i = 0 to cap - 1 do
    let op = ops.(i) in
    let inst = op.inst in
    let radius = inst.sch.Scheme.radius in
    if not (Hashtbl.mem seen op.inst_id) then begin
      Hashtbl.replace seen op.inst_id ();
      let g = Instance.graph inst.instance and csr = Simulator.compiled_csr inst.compiled in
      let s, e = span "graph6.encode" (fun () -> Graph6.encode g) in
      let g', d = span "graph6.decode" (fun () -> Graph6.decode s) in
      let _, cc = span "simulator.compile" (fun () -> Simulator.compile (Instance.of_graph g')) in
      g6_enc := ms_of_ns e :: !g6_enc;
      g6_dec := ms_of_ns d :: !g6_dec;
      compile := ms_of_ns cc :: !compile;
      let cut, pm = span "partition.make" (fun () -> Partition.make csr ~k:shards ~radius) in
      part := ms_of_ns pm :: !part;
      let covered = Array.fold_left (fun a s -> a + Partition.shard_n s) 0 cut in
      ghost := (float_of_int covered /. float_of_int (Csr.n csr) -. 1.) :: !ghost;
      let verifier view = try inst.sch.Scheme.verifier view with Bits.Reader.Decode_error _ -> false in
      Array.iter
        (fun s ->
          let _, t =
            span "simulator.verify_on" (fun () ->
                Simulator.run_verifier_on inst.compiled op.proof ~radius
                  ~nodes:(Partition.owned_nodes s) verifier)
          in
          verify_on := ms_of_ns t :: !verify_on)
        cut
    end;
    let compute_ns =
      match op.kind with
      | Prove ->
          let _, t = span "prover.prove" (fun () -> inst.sch.Scheme.prover inst.instance) in
          prove := ms_of_ns t :: !prove;
          t
      | Verify ->
          let _, t = span "simulator.verify" (fun () -> Inputs.rejecting inst op.proof) in
          verify := ms_of_ns t :: !verify;
          t
      | Sampled ->
          let o, t =
            span "randomized.run" (fun () ->
                Randomized_scheme.run (sampled_variant inst) inst.compiled op.proof ~seed:op.seed
                  ~queries)
          in
          run_us := us_of_ns t :: !run_us;
          if o.Randomized_scheme.accepted then t
          else t + snd (span "simulator.verify" (fun () -> Inputs.rejecting inst op.proof))
    in
    overhead_us := us_of_ns (res.(i).lat_ns - compute_ns) :: !overhead_us
  done;
  let fan, per_backend, retries, fan_failed = cluster_pass ops in
  if !trace_out <> "" then Obs.Trace.export !trace_out;
  let mean l = Stat.mean (Array.of_list l) in
  let m name value unit = { name; value; unit } in
  let metrics =
    [
      m "wire.encode_us" (mean !enc) "us";
      m "wire.decode_us" (mean !dec) "us";
      m "wire.req_kb" (mean !req_b) "KiB";
      m "wire.reply_kb" (mean !rep_b) "KiB";
      m "server.rtt_overhead_us" (mean !overhead_us) "us";
      m "server.queue_wait_us"
        (ratio (daemon "lcp_server_queue_wait_us_sum") (daemon "lcp_server_queue_wait_us_count"))
        "us";
      m "pool.busy_ratio" (ratio busy (busy +. idle)) "ratio";
      m "server.shed"
        (daemon "lcp_server_overloaded_total"
        +. daemon "lcp_server_deadline_exceeded_total"
        +. daemon "lcp_server_unavailable_total")
        "count";
      m "cache.hit_ratio" (ratio hits (hits +. misses)) "ratio";
      m "graph6.decode_ms" (mean !g6_dec) "ms";
      m "graph6.encode_ms" (mean !g6_enc) "ms";
      m "simulator.compile_ms" (mean !compile) "ms";
      m "simulator.verify_ms" (mean !verify) "ms";
      m "simulator.verify_on_ms" (mean !verify_on) "ms";
      m "prover.prove_ms" (mean !prove) "ms";
      m "randomized.run_us" (mean !run_us) "us";
      m "randomized.bits_read" (ratio (daemon "lcp_sampled_bits_read_total") sampled_req) "bits";
      m "randomized.escalation_ratio" (ratio (daemon "lcp_sampled_escalations_total") sampled_req) "ratio";
      m "partition.make_ms" (mean !part) "ms";
      m "partition.ghost_ratio" (mean !ghost) "ratio";
      m "fanout.verify_ms" (mean fan) "ms";
      m "router.backend_skew"
        (ratio (List.fold_left max 0. per_backend) (Stat.mean (Array.of_list per_backend)))
        "ratio";
      m "router.retries" retries "count";
      m "trace.overhead_ratio" overhead "ratio";
    ]
  in
  Printf.printf
    "traced run: %d ops, %d replayed in-process, %d Fanout.verify calls through the router; \
     tracing overhead %.4f\n"
    nops cap (List.length fan) overhead;
  List.iter (fun x -> Printf.printf "%-30s %14.6f %s\n" x.name x.value x.unit) metrics;
  (nops + List.length fan, failed + fan_failed, metrics)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "serve_bench.exe [options]";
  let wl =
    match List.assoc_opt !workload Inputs.workloads with
    | Some wl -> wl
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !lcp = "" || not (Sys.file_exists !lcp) then begin
    prerr_endline "--lcp must name the lcp executable";
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t_gen = now () in
  (* the traced run replays only the saturate phase *)
  let paced = if !traced = 1 then 0 else half_count wl.rate in
  let w = wl.generate ~seed:!seed ~paced ~saturate:(half_count wl.sat_rate) in
  Printf.printf "%s seed %d: %d paced + %d saturate ops, inputs and oracle in %.2f s\n%!"
    !workload !seed (Array.length w.paced) (Array.length w.saturate)
    (float_of_int (now () - t_gen) /. 1e9);
  match if !traced = 1 then traced_run w else end_to_end wl w with
  | exception Failure m ->
      Procs.stop_all !Procs.live;
      prerr_endline ("benchmark failed: " ^ m);
      exit 1
  | attempted, failed, metrics ->
      print_result ~correct:(failed = 0) ~attempted ~failed metrics;
      exit (if failed = 0 then 0 else 1)
