(* Workload inputs, generated from the seed before anything is timed,
   with the answer every reply must match.

   Every expected reply comes from the same public functions the
   daemon runs — [Simulator.run_verifier] for verdicts,
   [Randomized_scheme.run] plus the full verifier for sampled replies
   — computed in-process on an instance identical to the one the
   daemon decodes from the graph6 payload. Proofs returned by prove
   ops are checked after the phase, by verifying them in-process. *)

type kind = Prove | Verify | Sampled

let kind_name = function
  | Prove -> "prove"
  | Verify -> "verify"
  | Sampled -> "sampled"

type inst = {
  scheme : string;
  sch : Scheme.t;
  instance : Instance.t;
  compiled : Simulator.compiled;
  g6 : string;
  valid : Proof.t;
  corrupt : Proof.t Lazy.t;  (** All-ones: rejected at every node. *)
}

type expect =
  | Valid_proof of (Proof.t -> bool)
  | Verdict of int list  (** Full rejecting list; [[]] is an accept. *)
  | Sampled_reply of { escalated : bool; rejecting : int list }

type op = {
  kind : kind;
  req : Wire.request;  (** Sent with one [Client.call]. *)
  expect : expect;
  inst_id : int;  (** Ops on the same instance share an id. *)
  inst : inst;
  proof : Proof.t;  (** The proof sent ([valid] for prove ops). *)
  seed : int;  (** PRG seed of a sampled op. *)
}

type t = {
  warmup : op array;  (** Run once per set-up, untimed. *)
  paced : op array;
  saturate : op array;
}

let queries = 4

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> failwith ("scheme not registered: " ^ name)

(* A connected random bipartite graph: a uniform random tree plus
   about n/2 extra edges between its two colour classes. Connected
   with no isolated node, so an all-ones proof rejects everywhere and
   every sampled probe of it rejects. *)
let sparse_bipartite st n =
  let t = Random_graphs.tree st n in
  let side = Array.make n false and seen = Array.make n false in
  let q = Queue.create () in
  Queue.add 0 q;
  seen.(0) <- true;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Graph.iter_neighbours
      (fun u ->
        if not seen.(u) then begin
          seen.(u) <- true;
          side.(u) <- not side.(v);
          Queue.add u q
        end)
      t v
  done;
  let g = ref t in
  for _ = 1 to n / 2 do
    let u = Random.State.int st n and v = Random.State.int st n in
    if side.(u) <> side.(v) then g := Graph.add_edge !g u v
  done;
  !g

let make_inst scheme g =
  let e = entry scheme in
  let instance = Instance.of_graph g in
  let valid =
    match e.Registry.scheme.Scheme.prover instance with
    | Some p -> p
    | None -> failwith (scheme ^ ": generated a no-instance")
  in
  {
    scheme;
    sch = e.Registry.scheme;
    instance;
    compiled = Simulator.compile instance;
    g6 = Graph6.encode g;
    valid;
    corrupt =
      lazy
        (Proof.map
           (fun _ b -> Bits.of_bools (List.init (Bits.length b) (fun _ -> true)))
           valid);
  }

(* {2 Oracle} *)

let rejecting inst proof =
  let verifier view =
    try inst.sch.Scheme.verifier view with Bits.Reader.Decode_error _ -> false
  in
  let verdicts, _ =
    Simulator.run_verifier ~compiled:inst.compiled inst.instance proof
      ~radius:inst.sch.Scheme.radius verifier
  in
  List.filter_map (fun (v, ok) -> if ok then None else Some v) verdicts

let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> []

let sampled_variant inst =
  match Sampled.find inst.scheme with
  | Some rs -> rs
  | None -> failwith (inst.scheme ^ ": no sampled variant")

let sampled_expect inst proof ~seed ~rejecting =
  let o =
    Randomized_scheme.run (sampled_variant inst) inst.compiled proof ~seed
      ~queries
  in
  if o.Randomized_scheme.accepted then
    Sampled_reply { escalated = false; rejecting = [] }
  else Sampled_reply { escalated = true; rejecting = take 64 (rejecting ()) }

let proof_of inst ~corrupt = if corrupt then Lazy.force inst.corrupt else inst.valid

(* One op on instance [inst_id]. [rejecting ()] is the oracle's full
   rejecting list for the proof the op carries (memoised by the
   caller); [proof_ok] checks a proof a prove op got back. *)
let op inst ~kind ~inst_id ~corrupt ~seed ~rejecting ~proof_ok =
  let proof = proof_of inst ~corrupt in
  let scheme = inst.scheme and graph6 = inst.g6 in
  let req, expect =
    match kind with
    | Prove -> (Wire.Prove { scheme; graph6 }, Valid_proof proof_ok)
    | Verify -> (Wire.Verify { scheme; graph6; proof }, Verdict (rejecting ()))
    | Sampled ->
        ( Wire.Verify_sampled { scheme; graph6; proof; seed; queries; budget_id = "" },
          sampled_expect inst proof ~seed ~rejecting )
  in
  { kind; req; expect; inst_id; inst; proof; seed }

(* {2 Workloads} *)

(* prove:verify:sampled = 1:2:2, interleaved *)
let mix_1_2_2 = [| Prove; Verify; Sampled; Verify; Sampled |]

(* Draws from a shuffled deck, reshuffled when it runs out: over a
   run every item comes up equally often whatever the seed, so the
   seed changes which instance an op hits, not the mix of work. *)
let deck st items =
  let left = ref [] in
  fun () ->
    if !left = [] then left := Random_graphs.shuffle st items;
    match !left with
    | x :: rest ->
        left := rest;
        x
    | [] -> invalid_arg "deck: no items"

(* [count] ops over a fixed working set [insts]: kinds cycle through
   [mix], and each kind draws (instance, corrupt) pairs from its own
   deck [cards kind], so every kind sees the same instances, and the
   same instances corrupted, whatever the seed. Oracle answers are
   memoised per instance and proof. *)
let over_working_set st insts ~mix ~cards count =
  let memo = Hashtbl.create 64 and proved = Hashtbl.create 64 in
  let rejecting_of id corrupt () =
    match Hashtbl.find_opt memo (id, corrupt) with
    | Some r -> r
    | None ->
        let r = rejecting insts.(id) (proof_of insts.(id) ~corrupt) in
        Hashtbl.add memo (id, corrupt) r;
        r
  in
  (* the provers are deterministic, so each instance's reply is
     verified in full once and compared against thereafter *)
  let proof_ok id p =
    match Hashtbl.find_opt proved id with
    | Some q -> Proof.equal p q
    | None ->
        let ok = rejecting insts.(id) p = [] in
        if ok then Hashtbl.add proved id p;
        ok
  in
  let decks = List.map (fun k -> (k, deck st (cards k))) [ Prove; Verify; Sampled ] in
  Array.init count (fun i ->
      let kind = mix.(i mod Array.length mix) in
      let id, corrupt = (List.assoc kind decks) () in
      let seed = Random.State.bits st in
      op insts.(id) ~kind ~inst_id:id ~corrupt ~seed ~rejecting:(rejecting_of id corrupt)
        ~proof_ok:(proof_ok id))

(* Set-up warms the daemon's cache with one valid verify per instance. *)
let warmup_of insts =
  Array.mapi
    (fun id inst ->
      op inst ~kind:Verify ~inst_id:id ~corrupt:false ~seed:0
        ~rejecting:(fun () -> rejecting inst inst.valid)
        ~proof_ok:(fun _ -> true))
    insts

(* A workload: its fixed settings and its input generator. Each phase
   is a fixed op count, [rate] x S/2 paced and [sat_rate] x S/2
   saturate ops for a run of S seconds, so two builds compute every
   percentile over the same samples. *)
type workload = {
  rate : float;  (** Paced-phase arrivals per second. *)
  sat_rate : float;  (** Saturate-phase ops per second of S/2. *)
  generate : seed:int -> paced:int -> saturate:int -> t;
}

let ids n = List.init n Fun.id
let valid_only ids = List.map (fun id -> (id, false)) ids

(* Each instance once with the all-ones proof and three times valid. *)
let quarter_corrupt ids =
  List.concat_map (fun id -> [ (id, true); (id, false); (id, false); (id, false) ]) ids

(* hot-small: 8 sizes x {random tree, sparse bipartite} under
   bipartite (LCP(1), has a sampled variant) and even-n (Theta(log n));
   32 cache entries, all valid proofs. *)
let hot_small ~seed ~paced ~saturate =
  let st = Random.State.make [| seed; 1 |] in
  let sizes = [ 32; 48; 64; 96; 128; 160; 192; 256 ] in
  let graphs =
    List.concat_map
      (fun n -> [ Random_graphs.tree st n; sparse_bipartite st n ])
      sizes
  in
  let insts =
    Array.of_list
      (List.concat_map
         (fun g -> [ make_inst "bipartite" g; make_inst "even-n" g ])
         graphs)
  in
  (* even indices are bipartite, the only scheme with a sampled variant *)
  let all = ids (Array.length insts) in
  let cards = function
    | Sampled -> valid_only (List.filter (fun i -> i mod 2 = 0) all)
    | Prove | Verify -> valid_only all
  in
  let ops = over_working_set st insts ~mix:mix_1_2_2 ~cards in
  { warmup = warmup_of insts; paced = ops paced; saturate = ops saturate }

(* warm-large: 8 connected sparse bipartite graphs, n = 1024 .. 1920,
   all cache hits; a quarter of the verify/sampled ops carry the
   all-ones proof, so every sampled op on them escalates. *)
let warm_large ~seed ~paced ~saturate =
  let st = Random.State.make [| seed; 2 |] in
  let insts =
    Array.init 8 (fun i -> make_inst "bipartite" (sparse_bipartite st (1024 + (128 * i))))
  in
  let all = ids (Array.length insts) in
  let cards = function Prove -> valid_only all | Verify | Sampled -> quarter_corrupt all in
  let ops = over_working_set st insts ~mix:mix_1_2_2 ~cards in
  { warmup = warmup_of insts; paced = ops paced; saturate = ops saturate }

(* Rates and percentiles were set on a 2-vCPU VM: paced rates at about
   20% of the saturate throughput (nearer half of it, queueing amplified
   host-speed drift past the bounds), saturate op counts at about the
   throughput. *)
let workloads =
  [
    ("hot-small", { rate = 400.; sat_rate = 1900.; generate = hot_small });
    ("warm-large", { rate = 35.; sat_rate = 130.; generate = warm_large });
  ]
