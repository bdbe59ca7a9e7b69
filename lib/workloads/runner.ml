open Vax_arch
open Vax_cpu
open Vax_dev
open Vax_vmm
open Vax_vmos
open Vax_analysis

type measurement = {
  outcome : Machine.outcome;
  total_cycles : int;
  guest_cycles : int;
  monitor_cycles : int;
  instructions : int;
  console : string;
  machine : Machine.t;
  vm : Vm.t option;
  oracle : Oracle.t;
}

let default_max = 400_000_000

(* Every run carries the vaxlint differential oracle: the workload's code
   images are statically analyzed up front and the microcode's trap
   observer checks each VM-emulation trap, privileged fault, and modify
   fault against the predicted sites, raising on any unpredicted one.

   The static pass is a pure function of the mode assumption, [flow] and
   the code images, so its product is memoized by a digest of exactly
   those inputs: every run of a workload — repeated runs of one built
   system, or a fleet job that rebuilds it — shares one predicted table
   and gets fresh hit tracking via {!Oracle.with_predictions}.

   The cache is process-global and fleet workers on different domains
   consult it concurrently, so [oracle_cache_lock] serializes lookup and
   insertion only; the analysis itself runs outside the lock, so one
   domain's cold pass blocks no other.  Two domains racing on one key
   both analyze and the first insert wins — the results are equal
   because the pass is pure.  A cached oracle's predicted table is
   complete before it is inserted and read-only afterwards, so sharing
   it across domains is safe.  The table holds every catalog
   (workload, mode) pair with room to spare; when full it is reset. *)
let oracle_cache : (Digest.t, Oracle.t) Hashtbl.t = Hashtbl.create 64
let oracle_cache_lock = Mutex.create ()
let max_cached_oracles = 64

(* A built's code images as vaxflow-ready CFG images: each carries the
   access mode in which MiniVMS first enters it, seeding the
   abstract-mode analysis. *)
let images_of_built (b : Minivms.built) =
  List.map
    (fun (name, img) ->
      Cfg.of_asm ?entry_mode:(Minivms.image_entry_mode name) name img)
    b.Minivms.code_images

(* Everything the static pass reads, length-prefixed so that no two
   distinct inputs serialize alike. *)
let oracle_key ~mode ~flow (images : Cfg.image list) =
  let b = Buffer.create 4096 in
  let int n = Buffer.add_int64_le b (Int64.of_int n) in
  let str s =
    int (String.length s);
    Buffer.add_string b s
  in
  str (Classify.mode_name mode);
  int (Bool.to_int flow);
  List.iter
    (fun (i : Cfg.image) ->
      str i.Cfg.name;
      int i.Cfg.base;
      int (match i.Cfg.entry_mode with None -> -1 | Some m -> Mode.to_int m);
      int (List.length i.Cfg.entries);
      List.iter int i.Cfg.entries;
      int (Bytes.length i.Cfg.code);
      Buffer.add_bytes b i.Cfg.code)
    images;
  Digest.string (Buffer.contents b)

let make_oracle ~mode ~flow (builts : Minivms.built list) =
  let name = Classify.mode_name mode in
  let images = List.concat_map images_of_built builts in
  let key = oracle_key ~mode ~flow images in
  let src =
    match
      Mutex.protect oracle_cache_lock (fun () ->
          Hashtbl.find_opt oracle_cache key)
    with
    | Some src -> src
    | None ->
        let o = Oracle.of_images ~flow ~name ~mode images in
        Mutex.protect oracle_cache_lock (fun () ->
            match Hashtbl.find_opt oracle_cache key with
            | Some first -> first
            | None ->
                if Hashtbl.length oracle_cache >= max_cached_oracles then
                  Hashtbl.reset oracle_cache;
                Hashtbl.add oracle_cache key o;
                o)
  in
  Oracle.with_predictions ~name src

let register_flow_metrics m oracle =
  Vax_obs.Metrics.register_group m.Machine.metrics "analysis.flow" (fun () ->
      Oracle.flow_metrics oracle)

let run_bare ?(variant = Variant.Standard) ?engine ?inject ?instrument
    ?(flow = true) ?(max_cycles = default_max) (built : Minivms.built) =
  let m =
    Machine.create ~variant ~memory_pages:1024 ~disk_blocks:256 ?engine
      ?inject ()
  in
  let oracle = make_oracle ~mode:Classify.Bare ~flow [ built ] in
  Oracle.install ~strict:(inject = None) oracle m.Machine.cpu;
  register_flow_metrics m oracle;
  (match instrument with Some f -> f m | None -> ());
  List.iter
    (fun (pa, data) -> Machine.load m pa data)
    built.Minivms.images;
  Machine.start m ~pc:built.Minivms.entry ~sp:0xC00;
  let outcome = Machine.run m ~max_cycles () in
  {
    outcome;
    total_cycles = Cycles.now m.Machine.clock;
    guest_cycles = Cycles.guest_cycles m.Machine.clock;
    monitor_cycles = Cycles.monitor_cycles m.Machine.clock;
    instructions = m.Machine.cpu.State.instructions;
    console = Console.output m.Machine.console;
    machine = m;
    vm = None;
    oracle;
  }

let measure_vm m vmm vm outcome oracle =
  ignore vmm;
  {
    outcome;
    total_cycles = Cycles.now m.Machine.clock;
    guest_cycles = Cycles.guest_cycles m.Machine.clock;
    monitor_cycles = Cycles.monitor_cycles m.Machine.clock;
    instructions = Vmm.guest_instructions vm;
    console = Vmm.console_output vm;
    machine = m;
    vm = Some vm;
    oracle;
  }

let run_vm ?config ?io_mode ?engine ?inject ?instrument ?(flow = true)
    ?(max_cycles = default_max) (built : Minivms.built) =
  let m =
    Machine.create ~variant:Variant.Virtualizing ~memory_pages:2048
      ~disk_blocks:256 ?engine ?inject ()
  in
  let vmm = Vmm.create ?config m in
  let oracle = make_oracle ~mode:Classify.Vm ~flow [ built ] in
  Oracle.install ~strict:(inject = None) oracle m.Machine.cpu;
  register_flow_metrics m oracle;
  let vm =
    Vmm.add_vm vmm ~name:"guest" ~memory_pages:built.Minivms.memsize
      ~disk_blocks:64 ?io_mode ~images:built.Minivms.images
      ~start_pc:built.Minivms.entry ()
  in
  (match instrument with Some f -> f m | None -> ());
  let outcome = Vmm.run vmm ~max_cycles () in
  measure_vm m vmm vm outcome oracle

let run_two_vms ?config ?engine ?inject ?instrument ?(flow = true)
    ?(max_cycles = default_max) (b1 : Minivms.built) (b2 : Minivms.built) =
  let m =
    Machine.create ~variant:Variant.Virtualizing ~memory_pages:2048
      ~disk_blocks:256 ?engine ?inject ()
  in
  let vmm = Vmm.create ?config m in
  let oracle = make_oracle ~mode:Classify.Vm ~flow [ b1; b2 ] in
  Oracle.install ~strict:(inject = None) oracle m.Machine.cpu;
  register_flow_metrics m oracle;
  let vm1 =
    Vmm.add_vm vmm ~name:"vm1" ~memory_pages:b1.Minivms.memsize
      ~disk_blocks:64 ~images:b1.Minivms.images ~start_pc:b1.Minivms.entry ()
  in
  let vm2 =
    Vmm.add_vm vmm ~name:"vm2" ~memory_pages:b2.Minivms.memsize
      ~disk_blocks:64 ~images:b2.Minivms.images ~start_pc:b2.Minivms.entry ()
  in
  (match instrument with Some f -> f m | None -> ());
  let outcome = Vmm.run vmm ~max_cycles () in
  (measure_vm m vmm vm1 outcome oracle, measure_vm m vmm vm2 outcome oracle)

let ratio ~vm ~bare =
  float_of_int bare.total_cycles /. float_of_int vm.total_cycles
