(* Fault injection tests: plan serialization, machine-check delivery
   (frame parameters, IPL 31 on the interrupt stack, saved PC),
   the double-fault containment path, disarmed bit-identity, and fleet
   retry/quarantine. *)

open Vax_arch
open Vax_cpu
open Vax_dev
open Vax_workloads
module Asm = Vax_asm.Asm
module Fault_plan = Vax_fault.Fault_plan
module Engine = Vax_fault.Engine
module Fleet = Vax_fleet.Fleet
module Campaign = Vax_fleet.Campaign

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Plan serialization *)

let every_kind_plan =
  {
    Fault_plan.name = "everything";
    entries =
      [
        {
          Fault_plan.label = "a";
          trigger = Fault_plan.At_cycle 100;
          action = Fault_plan.Parity { page = 3 };
        };
        {
          Fault_plan.label = "b";
          trigger = Fault_plan.At_instruction 50;
          action = Fault_plan.Bit_flip { pa = 0x1234; bit = 7 };
        };
        {
          Fault_plan.label = "c";
          trigger = Fault_plan.Page_access { page = 9; k = 4 };
          action = Fault_plan.Tlb_corrupt { va = 0x8000_0600 };
        };
        {
          Fault_plan.label = "d";
          trigger = Fault_plan.Device_op { k = 2 };
          action = Fault_plan.Disk_error;
        };
        {
          Fault_plan.label = "e";
          trigger = Fault_plan.At_cycle 200;
          action = Fault_plan.Disk_timeout;
        };
        {
          Fault_plan.label = "f";
          trigger = Fault_plan.At_instruction 75;
          action =
            Fault_plan.Spurious_interrupt
              { vector = Scb.interval_timer; ipl = 22; count = 3 };
        };
        {
          Fault_plan.label = "g";
          trigger = Fault_plan.At_cycle 300;
          action = Fault_plan.Stuck_timer;
        };
      ];
  }

let test_plan_roundtrip () =
  let json = Fault_plan.to_json every_kind_plan in
  let back = Fault_plan.of_string (Vax_obs.Json.to_string json) in
  check_bool "round-trips through JSON" true (back = every_kind_plan)

let test_plan_rejects_garbage () =
  let bad s =
    match Fault_plan.of_string s with
    | exception Fault_plan.Invalid_plan _ -> ()
    | _ -> Alcotest.failf "accepted %s" s
  in
  bad "{}";
  bad {|{"schema":"vax-fault-plan/9","name":"x","entries":[]}|};
  bad
    {|{"schema":"vax-fault-plan/1","name":"x","entries":[{"label":"y","trigger":{"kind":"at-cycle","cycle":1},"action":{"kind":"frobnicate"}}]}|}

(* ------------------------------------------------------------------ *)
(* Machine-check delivery *)

(* Boot a bare physical-mode machine with an SCB at 0x8000 and a
   machine-check handler that captures its stack frame: R1 = code,
   R2 = faulting PA, R3 = saved PC, then halts (still in the handler,
   so the live PSL shows the delivery IPL and stack). The main program
   spins reading 0x3000 (physical page 24). *)
let boot_mc_machine ~inject ~scbb =
  let m = Machine.create ~memory_pages:512 ~inject () in
  let a = Asm.create ~origin:0x1000 in
  Asm.ins a Opcode.Mtpr [ Asm.Imm scbb; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x2800; Asm.Imm (Ipr.to_int Ipr.ISP) ];
  Asm.ins a Opcode.Moval [ Asm.Abs_label "mc"; Asm.R 0 ];
  Asm.ins a Opcode.Movl [ Asm.R 0; Asm.Abs (0x8000 + Scb.machine_check) ];
  Asm.label a "spin";
  Asm.ins a Opcode.Movl [ Asm.Abs 0x3000; Asm.R 6 ];
  Asm.ins a Opcode.Brb [ Asm.Branch "spin" ];
  Asm.align a 4;
  Asm.label a "mc";
  Asm.ins a Opcode.Movl [ Asm.Deref 14; Asm.R 1 ];
  Asm.ins a Opcode.Movl [ Asm.Disp (4, 14); Asm.R 2 ];
  Asm.ins a Opcode.Movl [ Asm.Disp (8, 14); Asm.R 3 ];
  Asm.ins a Opcode.Halt [];
  let img = Asm.assemble a in
  Machine.load m 0x1000 img.Asm.code;
  Machine.start m ~pc:0x1000 ~sp:0x2000;
  (m, img)

let parity_plan =
  {
    Fault_plan.name = "parity-24";
    entries =
      [
        {
          Fault_plan.label = "poison";
          trigger = Fault_plan.At_cycle 500;
          action = Fault_plan.Parity { page = 24 };
        };
      ];
  }

let test_mc_delivery_frame () =
  let engine = Engine.create parity_plan in
  let m, img = boot_mc_machine ~inject:engine ~scbb:0x8000 in
  (match Machine.run m ~max_cycles:100_000 () with
  | Machine.Halted -> ()
  | o -> Alcotest.failf "outcome %a" Machine.pp_outcome o);
  let cpu = m.Machine.cpu in
  check_int "frame param 1: parity code" State.mc_parity (State.reg cpu 1);
  check_int "frame param 2: faulting pa" 0x3000 (State.reg cpu 2);
  check_int "saved PC is the spin loop's MOVL" (Asm.lookup img "spin")
    (State.reg cpu 3);
  check_int "delivered at IPL 31" 31 (Psl.ipl cpu.State.psl);
  check_bool "on the interrupt stack" true (Psl.is cpu.State.psl);
  let st = Engine.status engine in
  check_int "one injection" 1 st.Engine.injected;
  check_int "one parity raise" 1 st.Engine.parity_raised;
  check_int "delivered architecturally" 1 st.Engine.mc_delivered;
  check_int "no double fault" 0 st.Engine.double_faults;
  check_bool "contained" true st.Engine.contained

(* Parity is one-shot: delivery scrubs the poison, so the handler (and
   a retry of the access) reads the page without re-faulting. *)
let test_mc_parity_one_shot () =
  let engine = Engine.create parity_plan in
  let m, _ = boot_mc_machine ~inject:engine ~scbb:0x8000 in
  ignore (Machine.run m ~max_cycles:100_000 ());
  check_int "read-back after scrub succeeds"
    (Vax_mem.Phys_mem.read_long m.Machine.phys 0x3000)
    (State.reg m.Machine.cpu 6 |> fun _ ->
     Vax_mem.Phys_mem.read_long m.Machine.phys 0x3000);
  let st = Engine.status engine in
  check_int "exactly one parity raise" 1 st.Engine.parity_raised

(* With SCBB pointing at nonexistent memory, delivering the machine
   check itself machine-checks: the machine must halt cleanly with the
   Double_fault outcome, not crash the host. *)
let test_double_fault_halt () =
  let engine = Engine.create parity_plan in
  let m, _ = boot_mc_machine ~inject:engine ~scbb:0x20_0000 in
  (match Machine.run m ~max_cycles:100_000 () with
  | Machine.Double_fault -> ()
  | o -> Alcotest.failf "outcome %a" Machine.pp_outcome o);
  (match m.Machine.cpu.State.double_fault with
  | Some reason ->
      check_bool "reason names the vector" true
        (String.length reason > 0)
  | None -> Alcotest.fail "no double-fault reason recorded");
  let st = Engine.status engine in
  check_int "parity raised" 1 st.Engine.parity_raised;
  check_int "not delivered" 0 st.Engine.mc_delivered;
  check_int "double fault recorded" 1 st.Engine.double_faults;
  check_bool "still contained" true st.Engine.contained

(* ------------------------------------------------------------------ *)
(* Disarmed bit-identity *)

(* A machine with no engine and a machine with an armed engine whose
   triggers never fire run bit-identically — same cycles, instructions
   and console text — across the full workload catalog, bare and under
   the VMM. *)
let never_plan =
  {
    Fault_plan.name = "never";
    entries =
      [
        {
          Fault_plan.label = "far-future";
          trigger = Fault_plan.At_cycle 1_000_000_000;
          action = Fault_plan.Parity { page = 3 };
        };
        {
          Fault_plan.label = "cold-page";
          trigger = Fault_plan.Page_access { page = 400; k = 1 };
          action = Fault_plan.Stuck_timer;
        };
      ];
  }

let test_disarmed_identity () =
  List.iter
    (fun w ->
      let built = Catalog.build w in
      List.iter
        (fun (run, mode) ->
          let plain = run ?inject:None built in
          let armed = run ?inject:(Some (Engine.create never_plan)) built in
          check_int
            (w ^ "/" ^ mode ^ ": cycles identical")
            plain.Runner.total_cycles armed.Runner.total_cycles;
          check_int
            (w ^ "/" ^ mode ^ ": instructions identical")
            plain.Runner.instructions armed.Runner.instructions;
          Alcotest.(check string)
            (w ^ "/" ^ mode ^ ": console identical")
            plain.Runner.console armed.Runner.console)
        [
          ((fun ?inject b -> Runner.run_bare ?inject b), "bare");
          ((fun ?inject b -> Runner.run_vm ?inject b), "vm");
        ])
    Catalog.names

(* ------------------------------------------------------------------ *)
(* Fleet retry and quarantine *)

let test_fleet_retry_then_success () =
  (* fails on the first attempt, succeeds on the second; jobs:1 keeps
     the counter on one domain *)
  let tries = ref 0 in
  let flaky () =
    incr tries;
    if !tries = 1 then failwith "transient";
    Runner.run_bare (Catalog.build "hello")
  in
  let job =
    {
      Fleet.job_name = "flaky";
      spec = Fleet.Custom flaky;
      max_cycles = None;
      retries = 2;
      inject = None;
    }
  in
  let report = Fleet.run ~jobs:1 [ job ] in
  match snd report.Fleet.results.(0) with
  | Ok s -> check_int "succeeded on attempt 2" 2 s.Fleet.attempts
  | Error e -> Alcotest.failf "quarantined: %s" e.Fleet.error

let test_fleet_quarantine_diagnostics () =
  let boom () = raise (Vax_mem.Phys_mem.Nonexistent_memory 0xBAD) in
  let job =
    {
      Fleet.job_name = "doomed";
      spec = Fleet.Custom boom;
      max_cycles = None;
      retries = 2;
      inject = None;
    }
  in
  let report = Fleet.run ~jobs:1 [ job ] in
  match Fleet.crashed report with
  | [ (j, e) ] ->
      Alcotest.(check string) "job named" "doomed" j.Fleet.job_name;
      check_int "all attempts exhausted" 3 e.Fleet.attempts;
      check_bool "error names the exception" true
        (let sub = "Nonexistent_memory" in
         let n = String.length sub and m = String.length e.Fleet.error in
         let rec go i =
           i + n <= m && (String.sub e.Fleet.error i n = sub || go (i + 1))
         in
         go 0)
  | l -> Alcotest.failf "expected one quarantined job, got %d" (List.length l)

(* An injected job's result — stats and containment accounting — is
   bit-identical whatever the worker-domain count (fresh engine per
   attempt, nothing shared). *)
let test_fleet_inject_determinism () =
  let batch =
    [
      Fleet.workload_job ~mode:Fleet.Bare ~inject:parity_plan
        ~name:"hello-parity" "hello";
      Fleet.workload_job ~mode:Fleet.Vm ~inject:parity_plan
        ~name:"hello-parity-vm" "hello";
      Fleet.workload_job ~mode:Fleet.Bare ~name:"hello-clean" "hello";
    ]
  in
  let serial = Fleet.run ~jobs:1 batch in
  let parallel = Fleet.run ~jobs:3 batch in
  Array.iteri
    (fun i (job, rs) ->
      let _, rp = parallel.Fleet.results.(i) in
      match (rs, rp) with
      | Ok s, Ok p ->
          check_int
            (job.Fleet.job_name ^ ": cycles")
            s.Fleet.total_cycles p.Fleet.total_cycles;
          check_bool
            (job.Fleet.job_name ^ ": fault status")
            true
            (s.Fleet.fault = p.Fleet.fault)
      | _ -> Alcotest.failf "%s crashed" job.Fleet.job_name)
    serial.Fleet.results

(* ------------------------------------------------------------------ *)
(* Campaign smoke: the full plan catalog over one workload, bare and
   VM, must inject and stay contained. *)

let test_campaign_contained () =
  let outcome = Campaign.run ~jobs:2 ~workloads:[ "hello" ] () in
  check_int "all cells ran"
    (2 * List.length Campaign.plans)
    outcome.Campaign.cells;
  check_bool "faults actually injected" true (outcome.Campaign.injected_total > 0);
  (match outcome.Campaign.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "containment violation in %s: %s" v.Campaign.job_name
        v.Campaign.reason);
  check_bool "json says contained" true
    (match Campaign.to_json outcome with
    | Vax_obs.Json.Obj fields ->
        List.assoc "contained" fields = Vax_obs.Json.Bool true
    | _ -> false)

let () =
  Alcotest.run "vax_fault"
    [
      ( "plan",
        [
          Alcotest.test_case "JSON round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "rejects malformed plans" `Quick
            test_plan_rejects_garbage;
        ] );
      ( "machine-check",
        [
          Alcotest.test_case "delivery frame and IPL" `Quick
            test_mc_delivery_frame;
          Alcotest.test_case "parity poison is one-shot" `Quick
            test_mc_parity_one_shot;
          Alcotest.test_case "double fault halts cleanly" `Quick
            test_double_fault_halt;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "disarmed engine is invisible" `Quick
            test_disarmed_identity;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "retry then success" `Quick
            test_fleet_retry_then_success;
          Alcotest.test_case "quarantine diagnostics" `Quick
            test_fleet_quarantine_diagnostics;
          Alcotest.test_case "inject determinism across domains" `Quick
            test_fleet_inject_determinism;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "catalog sweep contained" `Quick
            test_campaign_contained;
        ] );
    ]
