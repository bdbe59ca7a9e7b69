(* perfbench: the repository's end-to-end and per-layer benchmark.

   One process runs one workload generated from a seed:

     main.exe --workload bare-cpu|vm-trap|fleet-cold --seed N
              --seconds S --trace 0|1 [--loadavg L] [--out DIR]

   Every simulated result is checked against a reference computed first
   with the per-step interpreter ([Exec.Stepper]): outcome, total, guest
   and monitor cycles, retired instructions and console output.  The
   metrics snapshot of every repeated run of one system must also repeat
   exactly.  Any mismatch or exception counts as a failed run.

   The last line of standard output is one JSON object
   [{"correct", "attempted", "failed", "metrics"}]; with [--trace 0] the
   metrics are the end-to-end ones, with [--trace 1] the per-layer ones.
   The line before it records the host, the input and simulation digests
   and every end-to-end figure including [failed_ratio].  The traced run
   also writes its spans and per-layer self times to DIR.

   Host time comes from a monotonic clock and is scaled to a reference
   host speed (see [calibrate]).  A "run" is one boot-to-halt Runner
   call, or for fleet-cold one [Fleet.run] batch, since a fleet reports
   no host time per job.  Simulated figures come from [Metrics.snapshot]
   and repeat exactly for a given seed. *)

open Vax_dev
open Vax_vmos
open Vax_workloads
open Vax_analysis
open Vax_fleet
module Metrics = Vax_obs.Metrics
module Json = Vax_obs.Json

(* ------------------------------------------------------------------ *)
(* Clock and statistics                                                *)

let now () = Monotonic_clock.now ()
let ns_between a b = Int64.to_float (Int64.sub b a)

let deadline seconds = Int64.add (now ()) (Int64.of_float (seconds *. 1e9))

let before t = Int64.compare (now ()) t < 0

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

(* A system: a named way to build one MiniVMS image set.  [make] is
   pure, so every call builds an equal (but physically fresh) system. *)
type spec = { label : string; make : unit -> Minivms.built }

let mode_name = function Fleet.Bare -> "bare" | Fleet.Vm -> "vm"

type client =
  | Single  (** one closed-loop client running one system at a time *)
  | Batches of int  (** closed-loop [Fleet.run] batches of this many jobs *)

type workload = {
  specs : spec array;
  modes : Fleet.mode list;  (** the modes the workload runs its specs in *)
  client : client;
}

let program kind ~ident ~size =
  match kind with
  | "compute" -> Programs.compute ~ident ~iterations:size
  | "calls" -> Programs.calls ~ident ~rounds:size
  | "transaction" -> Programs.transaction ~ident ~count:size
  | "syscall" -> Programs.syscall_storm ~iterations:size
  | "ipl" -> Programs.ipl_storm ~iterations:size
  | "editing" -> Programs.editing ~ident ~rounds:size
  | "io" -> Programs.io_storm ~ident ~count:size
  | k -> invalid_arg ("perfbench: unknown program kind " ^ k)

(* Program kinds and base sizes per single-client workload.  Each base
   size is chosen so one boot-to-halt run costs roughly the same host
   time; the seed moves every size within +-5% and picks the draw
   order, so the mix (and with it the reported figures) is the same
   from seed to seed while the simulated inputs differ.  Six systems
   stay below the Runner's 8-entry analysis cache. *)
let bare_cpu_kinds =
  [ ("compute", 9000); ("calls", 2300); ("transaction", 41);
    ("compute", 9000); ("calls", 2300); ("transaction", 41) ]

let vm_trap_kinds =
  [ ("syscall", 700); ("ipl", 1700); ("editing", 62); ("io", 38);
    ("syscall", 700); ("editing", 62) ]

let seeded_specs rng kinds =
  Array.of_list
    (List.mapi
       (fun i (kind, base) ->
         let size = base * (95 + Random.State.int rng 11) / 100 in
         let ident = 1 + i in
         {
           label = Printf.sprintf "%s:%d" kind size;
           make =
             (fun () ->
               Minivms.build ~programs:[ program kind ~ident ~size ] ());
         })
       kinds)

let workload_of_name rng nproc = function
  | "bare-cpu" ->
      { specs = seeded_specs rng bare_cpu_kinds; modes = [ Fleet.Bare ];
        client = Single }
  | "vm-trap" ->
      { specs = seeded_specs rng vm_trap_kinds; modes = [ Fleet.Vm ];
        client = Single }
  | "fleet-cold" ->
      {
        specs =
          Array.of_list
            (List.map
               (fun w -> { label = w; make = (fun () -> Catalog.build w) })
               Catalog.names);
        modes = [ Fleet.Bare; Fleet.Vm ];
        client = Batches (3 * nproc);
      }
  | w -> invalid_arg ("perfbench: unknown workload " ^ w)

(* The systems a workload runs: every spec in every one of its modes. *)
let systems w =
  Array.of_list
    (List.concat_map
       (fun mode -> List.init (Array.length w.specs) (fun i -> (i, mode)))
       w.modes)

(* An endless seeded draw over [n] items: successive seeded
   permutations, so every item recurs equally often. *)
let drawer rng n =
  let perm = Array.init n Fun.id and pos = ref n in
  fun () ->
    if !pos = n then begin
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      pos := 0
    end;
    let i = perm.(!pos) in
    incr pos;
    i

(* ------------------------------------------------------------------ *)
(* Runs and the reference check                                        *)

let run_on ?engine ?instrument mode built =
  match mode with
  | Fleet.Bare -> Runner.run_bare ?engine ?instrument built
  | Fleet.Vm -> Runner.run_vm ?engine ?instrument built

type observed = {
  outcome : Machine.outcome;
  total : int;
  guest : int;
  monitor : int;
  insns : int;
  console : string;
}

let observe (m : Runner.measurement) =
  {
    outcome = m.Runner.outcome;
    total = m.Runner.total_cycles;
    guest = m.Runner.guest_cycles;
    monitor = m.Runner.monitor_cycles;
    insns = m.Runner.instructions;
    console = m.Runner.console;
  }

let observe_job (s : Fleet.job_stats) =
  {
    outcome = s.Fleet.outcome;
    total = s.Fleet.total_cycles;
    guest = s.Fleet.guest_cycles;
    monitor = s.Fleet.monitor_cycles;
    insns = s.Fleet.instructions;
    console = s.Fleet.console;
  }

let expected_outcome = function
  | Fleet.Bare -> Machine.Halted
  | Fleet.Vm -> Machine.Stopped

(* Run accounting for the whole process: every checked run or job. *)
let attempted = ref 0
let failed = ref 0
let failures = ref []

let fail what =
  incr failed;
  if List.length !failures < 8 then failures := what :: !failures

(* Per system (spec index, mode): the stepper reference, and the metrics
   snapshot of the first superblock-engine run, which every later run of
   the same system must repeat exactly. *)
let reference : (int * Fleet.mode, observed) Hashtbl.t = Hashtbl.create 32
let snapshots : (int * Fleet.mode, (string * int) list) Hashtbl.t =
  Hashtbl.create 32

let compute_reference w key =
  if not (Hashtbl.mem reference key) then begin
    let i, mode = key in
    let o = observe (run_on ~engine:Vax_cpu.Exec.Stepper mode (w.specs.(i).make ())) in
    if o.outcome <> expected_outcome mode then
      fail (Printf.sprintf "%s/%s: reference outcome %s" w.specs.(i).label
              (mode_name mode) (Format.asprintf "%a" Machine.pp_outcome o.outcome));
    Hashtbl.replace reference key o
  end

let check w key (result : (observed * (string * int) list, exn) result) =
  let i, mode = key in
  let name = w.specs.(i).label ^ "/" ^ mode_name mode in
  incr attempted;
  match result with
  | Error e -> fail (name ^ ": raised " ^ Printexc.to_string e)
  | Ok (o, snap) -> (
      if o <> Hashtbl.find reference key then
        fail (name ^ ": differs from the stepper reference")
      else if o.outcome <> expected_outcome mode then
        fail (name ^ ": unexpected outcome")
      else
        match Hashtbl.find_opt snapshots key with
        | None -> Hashtbl.replace snapshots key snap
        | Some s when s = snap -> ()
        | Some _ -> fail (name ^ ": metrics snapshot did not repeat"))

let of_run (r : (Runner.measurement, exn) result) =
  Result.map
    (fun m -> (observe m, Metrics.snapshot m.Runner.machine.Machine.metrics))
    r

(* A quarantined fleet job counts as a failed run. *)
let of_job (r : Fleet.job_result) =
  match r with
  | Ok s -> Ok (observe_job s, s.Fleet.metrics)
  | Error e -> Error (Failure ("quarantined: " ^ e.Fleet.error))

let check_run w key r = check w key (of_run r)
let check_job w key r = check w key (of_job r)

(* ------------------------------------------------------------------ *)
(* Spans of the traced run                                             *)

(* A span covers one call into a layer's public API.  [ops] is the number
   of identical calls the span covers (probes loop a cheap call), so
   [duration / ops] is the per-call time.  Fleet workers record from
   several domains, hence the lock. *)
type span = {
  id : int;
  parent : int;  (** 0 = root *)
  run : int;  (** spans of one run or job share this *)
  name : string;
  t0 : int64;
  t1 : int64;
  ops : int;
  system : string;  (** the system a run or job ran, or "" *)
}

let spans : span list ref = ref []
let spans_lock = Mutex.create ()
let span_ids = Atomic.make 1
let run_ids = Atomic.make 1
let fresh_span () = Atomic.fetch_and_add span_ids 1
let fresh_run () = Atomic.fetch_and_add run_ids 1

let record ?(ops = 1) ?(system = "") ~id ~parent ~run name t0 t1 =
  Mutex.protect spans_lock (fun () ->
      spans := { id; parent; run; name; t0; t1; ops; system } :: !spans)

let span ?ops ?system ~parent ~run name f =
  let id = fresh_span () in
  let t0 = now () in
  Fun.protect
    ~finally:(fun () -> record ?ops ?system ~id ~parent ~run name t0 (now ()))
    (fun () -> f id)

(* A Runner call split at its [instrument] hook into set-up (machine,
   oracle, facts, image load) and execution. *)
let traced_run ~parent ~run mode built =
  let t_call = now () in
  let t_hook = ref t_call in
  let m = run_on ~instrument:(fun _ -> t_hook := now ()) mode built in
  let t_ret = now () in
  record ~id:(fresh_span ()) ~parent ~run "runner.setup" t_call !t_hook;
  record ~id:(fresh_span ()) ~parent ~run "runner.exec" !t_hook t_ret;
  m

let spans_named name = List.filter (fun s -> s.name = name) !spans

let per_call_ns name =
  median
    (List.map (fun s -> ns_between s.t0 s.t1 /. float_of_int s.ops)
       (spans_named name))

(* Sum of durations over sum of ops: per-instruction times. *)
let per_op_ns name =
  let d, n =
    List.fold_left
      (fun (d, n) s -> (d +. ns_between s.t0 s.t1, n + s.ops))
      (0.0, 0) (spans_named name)
  in
  d /. float_of_int n

(* Self time: a span's duration minus the part its children cover.  The
   jobs of one fleet batch run on several domains at once, so the covered
   part is the length of the union of the children's intervals. *)
let covered intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when Int64.compare a cb <= 0 ->
            (total, Some (ca, if Int64.compare b cb > 0 then b else cb))
        | Some (ca, cb) -> (total +. ns_between ca cb, Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) sorted
  in
  match last with Some (a, b) -> total +. ns_between a b | None -> total

let self_times () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let c = Option.value ~default:[] (Hashtbl.find_opt children s.parent) in
      Hashtbl.replace children s.parent ((s.t0, s.t1) :: c))
    !spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let self = ns_between s.t0 s.t1 -. covered kids in
      let t, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (t +. self, n + 1))
    !spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)

(* Host-speed calibration.  Other tenants of a shared host slow it down
   for seconds to minutes at a time, and a fixed loop timed right after
   each timed call slows with it.  Each host time is scaled by
   [reference_ns] over the median loop time of its own and its four
   nearest calls, so it reads as on a host that runs the loop in
   [reference_ns] (its time on the quiet 2-core host where this
   benchmark was sized).

   The loop is a toy bytecode interpreter: [calib_steps] steps through a
   fixed pseudo-random program of eight equally common operations, with
   data-dependent forward branches, loads and stores over a 512 KiB
   array, as the simulator's own dispatch loop does.  Every call starts
   from the same state, so it does the same work each time.  It is the
   benchmark's own code, keeps its data outside the OCaml heap, does not
   allocate and runs only while the simulator is idle, so no change to
   the simulator can move it.  Contention does not slow the loop and
   the simulator exactly alike, so the scaling narrows the spread but
   does not remove it: over eight consecutive runs of one seed, while
   the host slowed 1.5x, scaled guest MIPS deviated 7% from their mean
   and unscaled 19%.  The unscaled figures are printed on the line
   before the result. *)
let reference_ns = 150_000.0

let calib_steps = 10_000

let calib_code =
  let s = ref 1 in
  Array.init 4096 (fun _ ->
      s := (!s * 0x5851f42d4c957f2d) + 0x14057b7ef767814f;
      (!s lsr 20) land 0x3fffffff)

let calib_mem = Bigarray.(Array1.create int c_layout 65536)

let calibrate () =
  let mem = calib_mem in
  Bigarray.Array1.fill mem 0;
  let t0 = now () in
  let acc = ref 1 and pc = ref 0 in
  for _ = 1 to calib_steps do
    let ins = calib_code.(!pc) in
    let arg = ins lsr 3 in
    let next = (!pc + 1) land 4095 in
    pc := next;
    match ins land 7 with
    | 0 -> acc := !acc + arg
    | 1 -> acc := !acc lxor mem.{(!acc + arg) land 65535}
    | 2 -> mem.{arg land 65535} <- !acc
    | 3 -> if !acc land 1 = 0 then pc := (next + (arg land 15)) land 4095
    | 4 -> acc := (!acc * 3) + 1
    | 5 -> acc := !acc lsr 1
    | 6 -> acc := !acc + mem.{mem.{arg land 65535} land 65535}
    | _ -> if !acc land 6 = 2 then pc := (next + (!acc land 31)) land 4095
  done;
  ignore (Sys.opaque_identity !acc);
  ns_between t0 (now ())

(* One timed call (a run, or a fleet batch of [jobs] jobs) and the
   calibration loop's time right after it. *)
type sample = { ns : float; jobs : int; insns : int; cal : float }

(* What one timed phase measured. *)
type phase = {
  mutable runs : int;  (** runs, or jobs in a fleet phase *)
  mutable insns : int;  (** guest instructions retired *)
  mutable samples : sample list;  (** newest first *)
  mutable gc_minor : float;
  mutable gc_promoted : float;
  mutable gc_major : int;
}

let new_phase () =
  { runs = 0; insns = 0; samples = []; gc_minor = 0.0; gc_promoted = 0.0;
    gc_major = 0 }

(* The phase's host times in call order, at reference speed unless
   [raw]. *)
let times ?(raw = false) p =
  let a = Array.of_list (List.rev p.samples) in
  let n = Array.length a in
  Array.mapi
    (fun i s ->
      if raw then s.ns
      else
        let lo = max 0 (i - 2) and hi = min (n - 1) (i + 2) in
        s.ns *. reference_ns /. median (List.init (hi - lo + 1) (fun k -> a.(lo + k).cal)))
    a

let total_ns ?raw p = Array.fold_left ( +. ) 0.0 (times ?raw p)
let mips ?raw p = float_of_int p.insns /. total_ns ?raw p *. 1e3
let jobs_per_s ?raw p = float_of_int p.runs /. total_ns ?raw p *. 1e9
let ns_per_insn p = total_ns p /. float_of_int p.insns

let run_ms_quantile ?raw p q =
  quantile q (Array.to_list (Array.map (fun ns -> ns /. 1e6) (times ?raw p)))

let with_gc p f =
  let g0 = Gc.quick_stat () in
  f ();
  let g1 = Gc.quick_stat () in
  p.gc_minor <- p.gc_minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  p.gc_promoted <- p.gc_promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  p.gc_major <- p.gc_major + (g1.Gc.major_collections - g0.Gc.major_collections)

let add_sample p ~ns ~jobs ~insns =
  p.runs <- p.runs + jobs;
  p.insns <- p.insns + insns;
  p.samples <- { ns; jobs; insns; cal = calibrate () } :: p.samples

let job_name w (i, mode) = w.specs.(i).label ^ "/" ^ mode_name mode

(* Single client: run the drawn system, time only the Runner call, then
   check it.  [traced] wraps each run in spans. *)
let single_phase w systems builts next ~seconds ~traced =
  let p = new_phase () in
  let stop = deadline seconds in
  with_gc p (fun () ->
      while before stop do
        let k = next () in
        let key = systems.(k) in
        let mode = snd key in
        let t0 = now () in
        let r =
          try
            Ok
              (if traced then
                 let run = fresh_run () in
                 span ~system:(job_name w key) ~parent:0 ~run "run" (fun id ->
                     traced_run ~parent:id ~run mode builts.(k))
               else run_on mode builts.(k))
          with e -> Error e
        in
        let t1 = now () in
        let insns = match r with Ok m -> m.Runner.instructions | Error _ -> 0 in
        add_sample p ~ns:(ns_between t0 t1) ~jobs:1 ~insns;
        check_run w key r
      done);
  p

(* A cold fleet job: the catalog path [Fleet.execute] takes, so every
   job rebuilds its system and misses the identity-keyed analysis
   cache. *)
let workload_job w key =
  let i, mode = key in
  Fleet.workload_job ~mode ~name:(job_name w key) w.specs.(i).label

(* The same job with its build and Runner call wrapped in spans. *)
let traced_job w ~parent key =
  let i, mode = key in
  {
    (workload_job w key) with
    Fleet.spec =
      Fleet.Custom
        (fun () ->
          let run = fresh_run () in
          span ~system:(job_name w key) ~parent ~run "fleet.job" (fun id ->
              let built = span ~parent:id ~run "vmos.build" (fun _ -> w.specs.(i).make ()) in
              traced_run ~parent:id ~run mode built));
  }

let attempts = ref 0
let fleet_jobs = ref 0

(* The fleet-cold workload runs on one domain fewer than the host has
   cores, and on one domain on a 2-core host: with a domain on every
   core any other process stalls whole batches, and on the 2-core host
   where this benchmark was sized some 30 s runs went at half speed
   while a single-domain loop timed beside them slowed by less than a
   fifth.  The traced run still measures the fleet at [nproc] domains
   ([fleet.parallel_efficiency]). *)
let fleet_domains nproc = max 1 (nproc - 1)

(* Closed-loop fleet batches on [domains] worker domains. *)
let fleet_phase w systems next ~batch ~domains ~seconds ~job =
  let p = new_phase () in
  let stop = deadline seconds in
  with_gc p (fun () ->
      while before stop do
        let keys = Array.init batch (fun _ -> systems.(next ())) in
        let run = fresh_run () in
        let t0 = now () in
        let report =
          span ~parent:0 ~run "fleet.batch" (fun id ->
              Fleet.run ~jobs:domains (Array.to_list (Array.map (job ~parent:id) keys)))
        in
        let t1 = now () in
        let insns = ref 0 in
        Array.iteri
          (fun j (_, r) ->
            let key = keys.(j) in
            incr fleet_jobs;
            (match r with
            | Ok (s : Fleet.job_stats) ->
                attempts := !attempts + s.Fleet.attempts;
                insns := !insns + s.Fleet.instructions
            | Error e -> attempts := !attempts + e.Fleet.attempts);
            check_job w key r)
          report.Fleet.results;
        add_sample p ~ns:(ns_between t0 t1) ~jobs:batch ~insns:!insns
      done);
  p

(* Set-up: build every system and run each once, which fills the
   Runner's analysis caches for the single-client workloads.  For the
   fleet, one warm-up batch on [domains] holding every system once. *)
let setup w systems ~domains =
  let t0 = now () in
  let builts =
    match w.client with
    | Single ->
        let builts = Array.map (fun (i, _) -> w.specs.(i).make ()) systems in
        Array.iteri
          (fun k b ->
            check_run w systems.(k)
              (try Ok (run_on (snd systems.(k)) b) with e -> Error e))
          builts;
        builts
    | Batches _ ->
        let report =
          Fleet.run ~jobs:domains (Array.to_list (Array.map (workload_job w) systems))
        in
        Array.iteri (fun k (_, r) -> check_job w systems.(k) r) report.Fleet.results;
        [||]
  in
  (ns_between t0 (now ()) /. 1e9, builts)

let n_setups = 11

(* Peak heap: the GC's top heap over [heap_rounds] seeded rounds of one
   call per system (a Runner call on a system built once, or a cold
   fleet job in [Fleet.run ~jobs:1]), done first in the process on one
   domain, each call started on a fully collected heap.  So it is the
   largest heap one call needs: the systems, the machine, the analysis
   tables and the garbage the call leaves for the GC, and it depends on
   the work alone.  Measured over the timed phase instead it would not
   repeat: with several domains OCaml's top-heap figure sums per-domain
   counts that move as worker domains end, and on one domain the peak
   hangs on where major cycles fall between calls.  The results are
   returned for checking once the references exist. *)
let heap_rounds = 2

let heap_pass w systems next =
  let builts = Array.map (fun (i, _) -> lazy (w.specs.(i).make ())) systems in
  let call k =
    let key = systems.(k) in
    match w.client with
    | Single ->
        let built = Lazy.force builts.(k) in
        Gc.full_major ();
        of_run (try Ok (run_on (snd key) built) with e -> Error e)
    | Batches _ ->
        Gc.full_major ();
        of_job (snd (Fleet.run ~jobs:1 [ workload_job w key ]).Fleet.results.(0))
  in
  let results =
    List.init (heap_rounds * Array.length systems) (fun _ ->
        let k = next () in
        (systems.(k), call k))
  in
  ((Gc.quick_stat ()).Gc.top_heap_words, results)

(* ------------------------------------------------------------------ *)
(* Probes of the traced run                                            *)

let probe_span ?ops name f = span ?ops ~parent:0 ~run:0 name (fun _ -> f ())

let probe_reps = 3

(* Per spec: system build, the two static passes on its images, and
   machine creation for each of the workload's modes. *)
let probe_static w =
  let create_words = ref [] in
  Array.iter
    (fun spec ->
      let builts = List.init probe_reps (fun _ -> probe_span "vmos.build" spec.make) in
      let images = Runner.images_of_built (List.hd builts) in
      List.iter
        (fun mode ->
          let cls = match mode with Fleet.Bare -> Classify.Bare | Fleet.Vm -> Classify.Vm in
          for _ = 1 to probe_reps do
            ignore
              (probe_span "analysis.oracle" (fun () ->
                   Oracle.of_images ~name:spec.label ~mode:cls images))
          done)
        w.modes;
      for _ = 1 to probe_reps do
        ignore (probe_span "analysis.liveness" (fun () -> Liveness.facts_of_images images))
      done)
    w.specs;
  List.iter
    (fun mode ->
      for _ = 1 to 5 * probe_reps do
        let g0 = Gc.quick_stat () in
        ignore
          (probe_span "dev.machine_create" (fun () ->
               match mode with
               | Fleet.Bare -> Machine.create ~memory_pages:1024 ~disk_blocks:256 ()
               | Fleet.Vm ->
                   Machine.create ~variant:Vax_cpu.Variant.Virtualizing
                     ~memory_pages:2048 ~disk_blocks:256 ()));
        let g1 = Gc.quick_stat () in
        create_words := (g1.Gc.major_words -. g0.Gc.major_words) :: !create_words
      done)
    w.modes;
  median !create_words

let translate_ops = 20_000
let fill_ops = 2_000
let snapshot_ops = 200

(* Cheap calls on a finished machine, looped inside one span each. *)
let probe_machine (m : Runner.measurement) =
  let machine = m.Runner.machine in
  ignore
    (probe_span ~ops:snapshot_ops "obs.snapshot" (fun () ->
         for _ = 1 to snapshot_ops do
           ignore (Metrics.snapshot machine.Machine.metrics)
         done));
  match m.Runner.vm with
  | None ->
      let mmu = machine.Machine.mmu in
      let va = Minivms.kdata_sva in
      let translate () =
        Vax_mem.Mmu.translate mmu ~mode:Vax_arch.Mode.Kernel ~write:false va
      in
      if Result.is_error (translate ()) then fail "probe: kernel data page does not translate";
      probe_span ~ops:translate_ops "mem.translate" (fun () ->
          for _ = 1 to translate_ops do ignore (translate ()) done)
  | Some vm ->
      let mmu = machine.Machine.mmu in
      let fill () = Vax_vmm.Shadow.fill mmu vm Minivms.kdata_sva in
      if fill () <> Vax_vmm.Shadow.Filled then fail "probe: kernel data page does not shadow-fill";
      probe_span ~ops:fill_ops "vmm.shadow_fill" (fun () ->
          for _ = 1 to fill_ops do ignore (fill ()) done)

(* Every spec bare and under the VMM with the analysis cached: exec time
   per guest instruction in each mode (same systems), the simulated
   counts of both modes (in [snapshots]), and the machine probes. *)
let probe_modes w =
  Array.iteri
    (fun i spec ->
      List.iter
        (fun mode ->
          let key = (i, mode) in
          compute_reference w key;
          let built = spec.make () in
          let last = ref None in
          for _ = 1 to probe_reps do
            let t_hook = ref 0L in
            let r =
              try Ok (run_on ~instrument:(fun _ -> t_hook := now ()) mode built)
              with e -> Error e
            in
            let t_ret = now () in
            check_run w key r;
            match r with
            | Ok m ->
                record ~ops:m.Runner.instructions ~id:(fresh_span ()) ~parent:0 ~run:0
                  ("exec." ^ mode_name mode) !t_hook t_ret;
                last := Some m
            | Error _ -> ()
          done;
          Option.iter probe_machine !last)
        [ Fleet.Bare; Fleet.Vm ])
    w.specs

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let num x = Json.Num x

let metric (name, unit_, v) = (name, Json.Obj [ ("value", num v); ("unit", Json.Str unit_) ])

let result_line metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (!failed = 0));
         ("attempted", Json.int !attempted);
         ("failed", Json.int !failed);
         ("metrics", Json.Obj (List.map metric metrics));
       ])

let mib_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0

let sum_gauge keys name =
  List.fold_left
    (fun acc key ->
      match Hashtbl.find_opt snapshots key with
      | Some s -> acc + Option.value ~default:0 (List.assoc_opt name s)
      | None -> acc)
    0 keys

let ratio a b = float_of_int a /. float_of_int (a + b)

let digest_of_strings l = Digest.to_hex (Digest.string (String.concat "\n" l))

(* The simulated results of every system the run touched: reference
   observables plus the repeated metrics snapshot. *)
let sim_digest () =
  let keys =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) reference [])
  in
  digest_of_strings
    (List.map
       (fun key ->
         let o = Hashtbl.find reference key in
         Printf.sprintf "%d/%s %d %d %d %d %S %s" (fst key) (mode_name (snd key))
           o.total o.guest o.monitor o.insns o.console
           (String.concat ","
              (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                 (Option.value ~default:[] (Hashtbl.find_opt snapshots key)))))
       keys)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write_trace ~out ~header =
  let origin =
    List.fold_left (fun acc s -> if Int64.compare s.t0 acc < 0 then s.t0 else acc)
      Int64.max_int !spans
  in
  let span_json s =
    Json.Obj
      [
        ("name", Json.Str s.name); ("id", Json.int s.id);
        ("parent", Json.int s.parent); ("run", Json.int s.run);
        ("start_ns", num (ns_between origin s.t0));
        ("end_ns", num (ns_between origin s.t1)); ("ops", Json.int s.ops);
        ("system", Json.Str s.system);
      ]
  in
  let self =
    List.map
      (fun (name, (ns, n)) ->
        (name, Json.Obj [ ("self_ms", num (ns /. 1e6)); ("spans", Json.int n) ]))
      (self_times ())
  in
  write_file out
    (Json.to_string
       (Json.Obj
          (header
          @ [
              ("self_time", Json.Obj self);
              ("spans", Json.Arr (List.rev_map span_json !spans));
            ])))

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref 0 in
  let loadavg = ref "" and out = ref "perfbench/out" and corrupt = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME bare-cpu, vm-trap or fleet-cold");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--loadavg", Arg.Set_string loadavg, "L host load average at start");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its spans");
      ( "--corrupt-reference",
        Arg.Set corrupt,
        " perturb one reference result (the benchmark must then fail)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: need --workload, --seed >= 0, --seconds > 0, --trace 0|1";
    exit 2
  end;
  Printexc.record_backtrace true;
  let nproc = Domain.recommended_domain_count () in
  let rng = Random.State.make [| !seed |] in
  let w = workload_of_name rng nproc !workload in
  let systems = systems w in
  let next = drawer rng (Array.length systems) in
  let batch = match w.client with Single -> 1 | Batches b -> b in
  (* The first draws fix the job list; its digest lets two invocations
     with one seed be compared. *)
  let inputs_digest =
    let probe = Random.State.copy rng in
    let next' = drawer probe (Array.length systems) in
    digest_of_strings
      (Array.to_list (Array.map (fun s -> s.label) w.specs)
      @ List.init 64 (fun _ -> job_name w systems.(next' ())))
  in
  (* The heap pass comes first, while the process is on one domain; it
     draws from a copy so the timed draw is the same without it. *)
  let heap_words, heap_results =
    if !trace = 0 then
      heap_pass w systems (drawer (Random.State.copy rng) (Array.length systems))
    else (0, [])
  in
  (* Reference results, before any timing. *)
  Array.iter (compute_reference w) systems;
  if !corrupt then begin
    let key = systems.(0) in
    let o = Hashtbl.find reference key in
    Hashtbl.replace reference key { o with total = o.total + 1 }
  end;
  List.iter (fun (key, r) -> check w key r) heap_results;
  (* Set-up, several times; the median is setup_s and the last set-up's
     systems are the ones timed. *)
  let setups =
    List.init n_setups (fun _ ->
        let secs, builts = setup w systems ~domains:(fleet_domains nproc) in
        let cal = median (List.init 3 (fun _ -> calibrate ())) in
        (secs, secs *. reference_ns /. cal, builts))
  in
  let setup_raw = median (List.map (fun (s, _, _) -> s) setups) in
  let setup_s = median (List.map (fun (_, s, _) -> s) setups) in
  let _, _, builts = List.nth setups (n_setups - 1) in
  let single ~seconds ~traced = single_phase w systems builts next ~seconds ~traced in
  let fleet ?(domains = fleet_domains nproc) ~seconds ~traced () =
    fleet_phase w systems next ~batch ~domains ~seconds
      ~job:(if traced then traced_job w else fun ~parent:_ key -> workload_job w key)
  in
  let timed ~seconds ~traced =
    match w.client with
    | Single -> single ~seconds ~traced
    | Batches _ -> fleet ~seconds ~traced ()
  in
  let host =
    ( "host",
      Json.Obj
        [
          ("nproc", Json.int nproc); ("ocaml", Json.Str Sys.ocaml_version);
          ("loadavg", Json.Str !loadavg);
        ] )
  in
  let header extra =
    [ host; ("workload", Json.Str !workload); ("seed", Json.int !seed);
      ("inputs_digest", Json.Str inputs_digest) ]
    @ extra
  in
  let metrics, detail =
    if !trace = 0 then begin
      let p = timed ~seconds:!seconds ~traced:false in
      let e2e =
        [
          ("setup_s", "s", setup_s);
          ("guest_mips", "MIPS", mips p);
          ("run_ms_p50", "ms", run_ms_quantile p 0.5);
          ("run_ms_p90", "ms", run_ms_quantile p 0.9);
          ("jobs_per_s", "1/s", jobs_per_s p);
          ("peak_heap_mb", "MiB", mib_of_words heap_words);
        ]
      in
      let raw =
        [
          ("setup_s", "s", setup_raw);
          ("guest_mips", "MIPS", mips ~raw:true p);
          ("run_ms_p50", "ms", run_ms_quantile ~raw:true p 0.5);
          ("run_ms_p90", "ms", run_ms_quantile ~raw:true p 0.9);
          ("jobs_per_s", "1/s", jobs_per_s ~raw:true p);
        ]
      in
      ( e2e,
        [
          ("unscaled", Json.Obj (List.map metric raw));
          ("calibration_ns", num (median (List.map (fun s -> s.cal) p.samples)));
          ("samples", Json.int (List.length p.samples));
        ] )
    end
    else begin
      let untraced = timed ~seconds:(0.35 *. !seconds) ~traced:false in
      let traced = timed ~seconds:(0.35 *. !seconds) ~traced:true in
      (* Scaling: the workload's own jobs at one domain and at nproc. *)
      let scaling domains =
        let seconds = 0.15 *. !seconds in
        match w.client with
        | Batches _ -> fleet ~domains ~seconds ~traced:false ()
        | Single ->
            let warm ~parent:_ key =
              let built = builts.(Option.get (Array.find_index (( = ) key) systems)) in
              { (workload_job w key) with Fleet.spec = Fleet.Custom (fun () -> run_on (snd key) built) }
            in
            fleet_phase w systems next ~batch:(2 * nproc) ~domains ~seconds ~job:warm
      in
      let at_1 = scaling 1 in
      let at_n = scaling nproc in
      let create_words = probe_static w in
      probe_modes w;
      let keys_in modes =
        List.concat_map (fun m -> List.init (Array.length w.specs) (fun i -> (i, m))) modes
      in
      let main = keys_in w.modes and vms = keys_in [ Fleet.Vm ] in
      let g = sum_gauge main and gv = sum_gauge vms in
      let vm_insns = gv "vm.guest.guest_instructions" in
      let runs = float_of_int untraced.runs in
      let layers =
        [
          ("vmos.build_ms", "ms", per_call_ns "vmos.build" /. 1e6);
          ("analysis.oracle_ms", "ms", per_call_ns "analysis.oracle" /. 1e6);
          ("analysis.liveness_ms", "ms", per_call_ns "analysis.liveness" /. 1e6);
          ("runner.setup_ms", "ms", per_call_ns "runner.setup" /. 1e6);
          ("runner.exec_ms", "ms", per_call_ns "runner.exec" /. 1e6);
          ("dev.machine_create_ms", "ms", per_call_ns "dev.machine_create" /. 1e6);
          ("dev.machine_create_major_words", "words", create_words);
          ("cpu.exec_ns_per_insn", "ns/insn", per_op_ns "exec.bare");
          ("cpu.block_hit_ratio", "ratio", ratio (g "blocks.hits") (g "blocks.misses"));
          ("cpu.blocks_built", "count", float_of_int (g "blocks.built"));
          ("cpu.block_invalidations", "count", float_of_int (g "blocks.invalidations"));
          ("mem.tlb_hit_ratio", "ratio", ratio (g "tlb.hits") (g "tlb.misses"));
          ("mem.walks", "count", float_of_int (g "mmu.walks"));
          ("mem.translate_ns", "ns", per_call_ns "mem.translate");
          ( "vmm.overhead_ns_per_insn", "ns/insn",
            per_op_ns "exec.vm" -. per_op_ns "exec.bare" );
          ( "vmm.monitor_cycle_share", "ratio",
            float_of_int
              (List.fold_left (fun a k -> a + (Hashtbl.find reference k).monitor) 0 vms)
            /. float_of_int
                 (List.fold_left (fun a k -> a + (Hashtbl.find reference k).total) 0 vms) );
          ( "vmm.emulation_traps_per_kinsn", "1/kinsn",
            1000.0 *. float_of_int (gv "vm.guest.emulation_traps") /. float_of_int vm_insns );
          ("vmm.shadow_fills", "count", float_of_int (gv "vm.guest.shadow_fills"));
          ("vmm.shadow_fill_ns", "ns", per_call_ns "vmm.shadow_fill");
          ("fleet.parallel_efficiency", "ratio", jobs_per_s at_n /. (float_of_int nproc *. jobs_per_s at_1));
          ( "fleet.attempts", "count/job",
            float_of_int !attempts /. float_of_int (max 1 !fleet_jobs) );
          ("obs.snapshot_us", "us", per_call_ns "obs.snapshot" /. 1e3);
          ("gc.minor_words_per_insn", "words/insn", untraced.gc_minor /. float_of_int untraced.insns);
          ("gc.major_collections_per_run", "count/run", float_of_int untraced.gc_major /. runs);
          ("gc.promoted_words_per_run", "words/run", untraced.gc_promoted /. runs);
          ("trace.overhead_ratio", "ratio", ns_per_insn traced /. ns_per_insn untraced);
        ]
      in
      mkdir_p !out;
      let file =
        Filename.concat !out (Printf.sprintf "trace-%s-seed%d.json" !workload !seed)
      in
      write_trace ~out:file ~header:(header [ ("sim_digest", Json.Str (sim_digest ())) ]);
      (layers, [ ("trace_file", Json.Str file) ])
    end
  in
  (* failed_ratio is 0 on a correct run, so the result line carries it as
     [attempted] and [failed]; this line names it beside the others. *)
  let failed_ratio = float_of_int !failed /. float_of_int (max 1 !attempted) in
  let named = (if !trace = 0 then metrics else []) @ [ ("failed_ratio", "ratio", failed_ratio) ] in
  print_endline
    (Json.to_string
       (Json.Obj
          (header
             ([ ("sim_digest", Json.Str (sim_digest ()));
                ("end_to_end", Json.Obj (List.map metric named));
                ("failures", Json.Arr (List.rev_map (fun s -> Json.Str s) !failures)) ]
             @ detail))));
  print_endline (result_line metrics);
  exit (if !failed = 0 then 0 else 1)
