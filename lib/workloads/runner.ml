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

   The static pass is pure in the code images, and a [Minivms.built] is
   immutable once assembled, so the analysis is memoized by the physical
   identity of the built list: repeated runs of the same workload (the
   benchmark harness's pattern) share one predicted table and get fresh
   hit tracking via {!Oracle.with_predictions}.

   The cache is process-global, so lookup and insertion are serialized
   by [oracle_cache_lock]: fleet workers on different domains may run
   (and even share) the same built images concurrently.  A cached
   oracle's predicted table is completed inside the critical section
   and read-only afterwards, so sharing it across domains is safe. *)
let oracle_cache :
    (Classify.mode_assumption * bool * Minivms.built list * Oracle.t) list ref =
  ref []

let oracle_cache_lock = Mutex.create ()
let max_cached_oracles = 8

(* A built's code images as vaxflow-ready CFG images: each carries the
   access mode in which MiniVMS first enters it, seeding the
   abstract-mode analysis. *)
let images_of_built (b : Minivms.built) =
  List.map
    (fun (name, img) ->
      Cfg.of_asm ?entry_mode:(Minivms.image_entry_mode name) name img)
    b.Minivms.code_images

let make_oracle ~mode ~flow (builts : Minivms.built list) =
  let name = Classify.mode_name mode in
  let same (m, f, bs, _) =
    m = mode && f = flow
    && List.length bs = List.length builts
    && List.for_all2 ( == ) bs builts
  in
  Mutex.protect oracle_cache_lock (fun () ->
      match List.find_opt same !oracle_cache with
      | Some (_, _, _, src) -> Oracle.with_predictions ~name src
      | None ->
          let images = List.concat_map images_of_built builts in
          let o = Oracle.of_images ~flow ~name ~mode images in
          oracle_cache :=
            (mode, flow, builts, o)
            :: (if List.length !oracle_cache >= max_cached_oracles then
                  List.filteri
                    (fun i _ -> i < max_cached_oracles - 1)
                    !oracle_cache
                else !oracle_cache);
          o)

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
