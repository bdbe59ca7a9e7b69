(* Superblock engine equivalence tests.

   The block engine ([Exec.Blocks]) is a pure host-speed optimisation: it
   must produce bit-identical architectural state, simulated cycle counts
   and interrupt latencies to the reference per-step interpreter
   ([Exec.Stepper]).  These tests run the same programs under both
   engines and compare everything observable: cycles (total and
   guest/monitor split), instruction counts, registers, PSL, console
   output and run outcome.

   They also pin down the invalidation rules: self-modifying code must
   take effect at the same instruction boundary under both engines, even
   when the store targets a later instruction of the *same* block or
   rewrites only an operand specifier (same opcode, same length), and a
   store into the second page of a page-straddling instruction must
   invalidate its cached decode. *)

open Vax_arch
open Vax_cpu
open Vax_workloads
module Asm = Vax_asm.Asm

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Workload equivalence: every catalog workload, bare and under the VMM *)

type summary = {
  outcome : string;
  total : int;
  guest : int;
  monitor : int;
  instrs : int;
  console : string;
  regs : int list;
  psl : int;
  tlb : int * int;  (* misses, evictions *)
  trace : int * int;  (* events, digest *)
}

(* Digest the vax-trace/1 stream minus [block-build] events, which only
   the block engine emits.  Sequence numbers are left out for the same
   reason: a block build consumes one. *)
let trace_digest () =
  let events = ref 0 and h = ref 0 in
  let instrument (mach : Vax_dev.Machine.t) =
    let tr = mach.Vax_dev.Machine.trace in
    Vax_obs.Trace.set_sink tr
      (Some
         (fun ~seq:_ kind ~a ~b ~c ->
           if kind <> Vax_obs.Trace.Block_build then begin
             incr events;
             List.iter
               (fun x -> h := (!h * 1_000_003) lxor x)
               [ Vax_obs.Trace.kind_code kind; a; b; c ]
           end));
    Vax_obs.Trace.set_enabled tr true
  in
  (instrument, fun () -> (!events, !h))

let summarize (m : Runner.measurement) trace =
  let mach = m.Runner.machine in
  let st = mach.Vax_dev.Machine.cpu in
  let tlb = Vax_mem.Mmu.tlb mach.Vax_dev.Machine.mmu in
  {
    outcome = Format.asprintf "%a" Vax_dev.Machine.pp_outcome m.Runner.outcome;
    total = m.Runner.total_cycles;
    guest = m.Runner.guest_cycles;
    monitor = m.Runner.monitor_cycles;
    instrs = m.Runner.instructions;
    console = m.Runner.console;
    regs = List.init 16 (State.reg st);
    psl = st.State.psl;
    (* TLB hits are left out: the decode cache's entries die on every TB
       change, and each re-decode fetches the instruction bytes through
       the TB again, counting hits.  Blocks survive TB changes, so the
       block engine re-decodes less and counts fewer hits. *)
    tlb = Vax_mem.Tlb.(misses tlb, evictions tlb);
    trace;
  }

let run_summary run engine built =
  let instrument, digest = trace_digest () in
  let m = run ~engine ~instrument built in
  summarize m (digest ())

let check_summary name a b =
  Alcotest.(check string) (name ^ ": outcome") a.outcome b.outcome;
  check_int (name ^ ": total cycles") a.total b.total;
  check_int (name ^ ": guest cycles") a.guest b.guest;
  check_int (name ^ ": monitor cycles") a.monitor b.monitor;
  check_int (name ^ ": instructions") a.instrs b.instrs;
  Alcotest.(check string) (name ^ ": console") a.console b.console;
  Alcotest.(check (list int)) (name ^ ": registers") a.regs b.regs;
  check_int (name ^ ": psl") a.psl b.psl;
  Alcotest.(check (pair int int)) (name ^ ": tlb misses/evictions") a.tlb b.tlb;
  Alcotest.(check bool) (name ^ ": trace recorded") true (fst a.trace > 0);
  Alcotest.(check (pair int int)) (name ^ ": trace events/digest") a.trace b.trace

let test_bare_workloads () =
  let run ~engine ~instrument b = Runner.run_bare ~engine ~instrument b in
  List.iter
    (fun w ->
      let built = Catalog.build w in
      let s = run_summary run Exec.Stepper built in
      let b = run_summary run Exec.Blocks built in
      check_summary ("bare " ^ w) s b)
    Catalog.names

let test_vm_workloads () =
  let run ~engine ~instrument b = Runner.run_vm ~engine ~instrument b in
  List.iter
    (fun w ->
      let built = Catalog.build w in
      let s = run_summary run Exec.Stepper built in
      let b = run_summary run Exec.Blocks built in
      check_summary ("vm " ^ w) s b)
    Catalog.names

(* ------------------------------------------------------------------ *)
(* Directed programs on the bare CPU facade *)

let boot ~engine ?(origin = 0x1000) ?memory_pages f =
  let cpu = Cpu.create ~engine ?memory_pages () in
  let a = Asm.create ~origin in
  f a;
  let img = Asm.assemble a in
  Cpu.load cpu img.Asm.image_origin img.Asm.code;
  State.set_pc cpu.Cpu.state origin;
  State.set_sp cpu.Cpu.state 0x2000;
  (cpu, img)

let cpu_summary (cpu : Cpu.t) =
  ( List.init 16 (State.reg cpu.Cpu.state),
    cpu.Cpu.state.State.psl,
    Cycles.now cpu.Cpu.clock,
    cpu.Cpu.state.State.instructions )

let both_engines f =
  let s = f Exec.Stepper and b = f Exec.Blocks in
  let rs, ps, cs, is = s and rb, pb, cb, ib = b in
  Alcotest.(check (list int)) "registers" rs rb;
  check_int "psl" ps pb;
  check_int "cycles" cs cb;
  check_int "instructions" is ib;
  s

let opcode_byte op =
  match Opcode.encoding op with [ b ] -> b | _ -> assert false

(* An interrupt posted mid-block must be delivered at the same
   instruction boundary — same cycle, same instruction count — under
   both engines, for several different boundaries within the block. *)
let interrupt_program a =
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0x8000; Asm.Imm (Ipr.to_int Ipr.SCBB) ];
  Asm.ins a Opcode.Moval [ Asm.Abs_label "handler"; Asm.R 0 ];
  Asm.ins a Opcode.Movl [ Asm.R 0; Asm.Abs (0x8000 + Scb.interval_timer) ];
  Asm.ins a Opcode.Mtpr [ Asm.Imm 0; Asm.Imm (Ipr.to_int Ipr.IPL) ];
  Asm.ins a Opcode.Movl [ Asm.Imm 40; Asm.R 2 ];
  Asm.label a "loop";
  (* a straight-line body long enough to span several block slots *)
  for _ = 1 to 6 do
    Asm.ins a Opcode.Incl [ Asm.R 1 ]
  done;
  Asm.ins a Opcode.Addl2 [ Asm.Imm 3; Asm.R 1 ];
  Asm.ins a Opcode.Sobgtr [ Asm.R 2; Asm.Branch "loop" ];
  Asm.ins a Opcode.Halt [];
  Asm.align a 4;
  Asm.label a "handler";
  Asm.ins a Opcode.Incl [ Asm.R 10 ];
  Asm.ins a Opcode.Rei []

let run_with_interrupt engine k =
  let cpu, _ = boot ~engine interrupt_program in
  let st = cpu.Cpu.state in
  (* step exactly [k] instructions, post a timer interrupt, then run to
     the HALT; record the cycle and instruction count at delivery *)
  for _ = 1 to k do
    ignore (Cpu.step cpu)
  done;
  State.post_interrupt st ~ipl:22 ~vector:Scb.interval_timer;
  let delivery = ref (-1, -1) in
  let rec go n =
    if n = 0 then Alcotest.fail "no halt";
    if st.State.interrupts_taken > 0 && !delivery = (-1, -1) then
      delivery := (Cycles.now cpu.Cpu.clock, st.State.instructions);
    match Cpu.step cpu with Exec.Machine_halted -> () | _ -> go (n - 1)
  in
  go 5000;
  check_int "interrupt delivered once" 1 st.State.interrupts_taken;
  check_int "handler ran" 1 (State.reg st 10);
  (cpu_summary cpu, !delivery)

let test_interrupt_mid_block () =
  (* k values chosen to land at different offsets inside the loop body's
     block, including right after the block is first built *)
  List.iter
    (fun k ->
      let (ss, sd) = run_with_interrupt Exec.Stepper k in
      let (bs, bd) = run_with_interrupt Exec.Blocks k in
      let rs, ps, cs, is = ss and rb, pb, cb, ib = bs in
      Alcotest.(check (list int))
        (Printf.sprintf "k=%d registers" k)
        rs rb;
      check_int (Printf.sprintf "k=%d psl" k) ps pb;
      check_int (Printf.sprintf "k=%d final cycles" k) cs cb;
      check_int (Printf.sprintf "k=%d instructions" k) is ib;
      let dc_s, di_s = sd and dc_b, di_b = bd in
      check_int (Printf.sprintf "k=%d delivery cycle" k) dc_s dc_b;
      check_int (Printf.sprintf "k=%d delivery instruction" k) di_s di_b)
    [ 5; 9; 13; 17; 23; 42 ]

(* Self-modifying code where the store targets a *later* instruction of
   the same straight-line block: the second iteration enters the block,
   the store bumps the page generation, and the patched slot must be
   re-decoded before it runs. *)
let test_smc_inside_block () =
  let incl = opcode_byte Opcode.Incl and decl = opcode_byte Opcode.Decl in
  let run engine =
    let cpu, _ =
      boot ~engine (fun a ->
          Asm.ins a Opcode.Movl [ Asm.Imm 2; Asm.R 2 ];
          Asm.ins a Opcode.Movb [ Asm.Imm incl; Asm.R 3 ];
          Asm.label a "loop";
          (* slot k: patch the opcode of slot k+1 *)
          Asm.ins a Opcode.Movb [ Asm.R 3; Asm.Abs_label "patch" ];
          Asm.label a "patch";
          Asm.ins a Opcode.Incl [ Asm.R 0 ];
          Asm.ins a Opcode.Movb [ Asm.Imm decl; Asm.R 3 ];
          Asm.ins a Opcode.Sobgtr [ Asm.R 2; Asm.Branch "loop" ];
          Asm.ins a Opcode.Halt [])
    in
    (match Cpu.run cpu ~max_instructions:1000 () with
    | Exec.Machine_halted -> ()
    | _ -> Alcotest.fail "no halt");
    cpu_summary cpu
  in
  let (regs, _, _, _) = both_engines run in
  (* iteration 1 executes INCL, iteration 2 the patched DECL: a stale
     cached block would leave r0 = 2 instead *)
  check_int "patched slot re-decoded" 0 (List.nth regs 0)

(* The store lives in one block and patches an instruction of another,
   already-built block (a subroutine executed before and after). *)
let test_smc_across_blocks () =
  let decl = opcode_byte Opcode.Decl in
  let run engine =
    let cpu, _ =
      boot ~engine (fun a ->
          Asm.ins a Opcode.Bsbb [ Asm.Branch "sub" ];
          Asm.ins a Opcode.Bsbb [ Asm.Branch "sub" ];
          Asm.ins a Opcode.Movb [ Asm.Imm decl; Asm.Abs_label "subpatch" ];
          Asm.ins a Opcode.Bsbb [ Asm.Branch "sub" ];
          Asm.ins a Opcode.Halt [];
          Asm.label a "sub";
          Asm.label a "subpatch";
          Asm.ins a Opcode.Incl [ Asm.R 0 ];
          Asm.ins a Opcode.Rsb [])
    in
    (match Cpu.run cpu ~max_instructions:1000 () with
    | Exec.Machine_halted -> ()
    | _ -> Alcotest.fail "no halt");
    cpu_summary cpu
  in
  let (regs, _, _, _) = both_engines run in
  (* two INCLs then the patched DECL: 1 + 1 - 1 *)
  check_int "patched subroutine re-decoded" 1 (List.nth regs 0)

(* Self-modifying code that rewrites an operand specifier without
   changing the opcode or the instruction length: the ADDL2 first adds
   R0 = 5, then the store retargets its source specifier to R3 = 9.  A
   cached slot keyed only on opcode and length would keep adding 5 on
   the second iteration; the store generation must force a re-decode. *)
let test_smc_operand_patch () =
  let run engine =
    let cpu, _ =
      boot ~engine (fun a ->
          Asm.ins a Opcode.Movl [ Asm.Imm 2; Asm.R 2 ];
          Asm.ins a Opcode.Movl [ Asm.Imm 5; Asm.R 0 ];
          Asm.ins a Opcode.Movl [ Asm.Imm 9; Asm.R 3 ];
          Asm.label a "loop";
          Asm.ins a Opcode.Clrl [ Asm.R 1 ];
          let addl2 = Asm.here a in
          Asm.ins a Opcode.Addl2 [ Asm.R 0; Asm.R 1 ];
          (* 0x53 is the register-mode specifier for R3 *)
          Asm.ins a Opcode.Movb [ Asm.Imm 0x53; Asm.Abs (addl2 + 1) ];
          Asm.ins a Opcode.Sobgtr [ Asm.R 2; Asm.Branch "loop" ];
          Asm.ins a Opcode.Halt [])
    in
    (match Cpu.run cpu ~max_instructions:1000 () with
    | Exec.Machine_halted -> ()
    | _ -> Alcotest.fail "no halt");
    cpu_summary cpu
  in
  let (regs, _, _, _) = both_engines run in
  check_int "patched operand re-read" 9 (List.nth regs 1)

(* A page-straddling instruction whose second page is stored into must
   be re-decoded: the decode cache records both pages' generations. *)
let test_straddler_invalidation () =
  let page = Addr.page_size in
  let run engine =
    let origin = (2 * page) - 64 in
    let cpu, img =
      boot ~engine ~origin (fun a ->
          Asm.ins a Opcode.Bsbb [ Asm.Branch "strad" ];
          Asm.ins a Opcode.Movl [ Asm.R 0; Asm.R 5 ];
          (* patch the third immediate byte, which lives on the second
             page of the straddling instruction *)
          Asm.ins a Opcode.Movb [ Asm.Imm 0xAA; Asm.Abs (((2 * page) - 4) + 4) ];
          Asm.ins a Opcode.Bsbb [ Asm.Branch "strad" ];
          Asm.ins a Opcode.Halt [];
          Asm.space a ((2 * page) - 4 - Asm.here a);
          Asm.label a "strad";
          (* 7 bytes: opcode, 0x8F, 4 immediate bytes, register dst —
             starts 4 bytes before the page boundary, so the last two
             immediate bytes and the dst specifier are on the next page *)
          Asm.ins a Opcode.Movl [ Asm.Imm 0x11223344; Asm.R 0 ];
          Asm.ins a Opcode.Rsb [])
    in
    check_int "straddler placed at page boundary - 4"
      ((2 * page) - 4)
      (Asm.lookup img "strad");
    (match Cpu.run cpu ~max_instructions:1000 () with
    | Exec.Machine_halted -> ()
    | _ -> Alcotest.fail "no halt");
    cpu_summary cpu
  in
  let (regs, _, _, _) = both_engines run in
  check_int "first read" 0x11223344 (List.nth regs 5);
  (* a stale straddler decode would reproduce 0x11223344 *)
  check_int "second read sees patched byte" 0x11AA3344 (List.nth regs 0)

(* The block cache actually engages on these runs: hits and built blocks
   are non-zero under the block engine. *)
let test_block_cache_engages () =
  let built = Catalog.build "mix" in
  let m = Runner.run_bare ~engine:Exec.Blocks built in
  let bc = m.Runner.machine.Vax_dev.Machine.bcache in
  Alcotest.(check bool) "blocks built" true (Block_cache.built bc > 0);
  Alcotest.(check bool) "block hits" true (Block_cache.hits bc > 0);
  Alcotest.(check bool)
    "hits dominate misses" true
    (Block_cache.hits bc > Block_cache.misses bc)

(* Two hot blocks whose physical addresses are congruent modulo the block
   table share its slot: the loop head calls a subroutine exactly one
   table's span away, so each entry evicts the other block and rebuilds
   its own.  The table is the only way back into a block, so every
   iteration rebuilds both; the engines must still agree on everything. *)
let test_table_collision () =
  let iterations = 20 in
  let span = Array.length (Block_cache.create ()).Block_cache.blocks in
  let run engine =
    let cpu, img =
      boot ~engine (fun a ->
          Asm.ins a Opcode.Movl [ Asm.Imm iterations; Asm.R 2 ];
          let loop = Asm.here a in
          Asm.label a "loop";
          Asm.ins a Opcode.Incl [ Asm.R 0 ];
          Asm.ins a Opcode.Addl2 [ Asm.Lit 3; Asm.R 0 ];
          Asm.ins a Opcode.Jsb [ Asm.Abs_label "sub" ];
          Asm.ins a Opcode.Sobgtr [ Asm.R 2; Asm.Branch "loop" ];
          Asm.ins a Opcode.Halt [];
          Asm.space a (loop + span - Asm.here a);
          Asm.label a "sub";
          Asm.ins a Opcode.Incl [ Asm.R 1 ];
          Asm.ins a Opcode.Addl2 [ Asm.R 0; Asm.R 1 ];
          Asm.ins a Opcode.Rsb [])
    in
    check_int "blocks one table span apart" span
      (Asm.lookup img "sub" - Asm.lookup img "loop");
    let events = ref [] in
    let tr = Vax_obs.Trace.create () in
    Vax_obs.Trace.set_sink tr
      (Some
         (fun ~seq:_ kind ~a ~b ~c ->
           if kind <> Vax_obs.Trace.Block_build then
             events := (Vax_obs.Trace.kind_code kind, a, b, c) :: !events));
    Vax_obs.Trace.set_enabled tr true;
    cpu.Cpu.state.State.trace <- tr;
    (match Cpu.run cpu ~max_instructions:1000 () with
    | Exec.Machine_halted -> ()
    | _ -> Alcotest.fail "no halt");
    (cpu_summary cpu, List.rev !events, Block_cache.built cpu.Cpu.bcache)
  in
  let s, s_events, _ = run Exec.Stepper and b, b_events, built = run Exec.Blocks in
  let rs, ps, cs, is = s and rb, pb, cb, ib = b in
  Alcotest.(check (list int)) "registers" rs rb;
  check_int "psl" ps pb;
  check_int "cycles" cs cb;
  check_int "instructions" is ib;
  check_int "loop ran" (4 * iterations) (List.nth rs 0);
  Alcotest.(check bool) "trace recorded" true (s_events <> []);
  Alcotest.(check bool) "trace identical" true (s_events = b_events);
  (* the loop and subroutine blocks are rebuilt on every entry *)
  Alcotest.(check bool)
    (Printf.sprintf "%d blocks built for %d iterations" built iterations)
    true
    (built >= 2 * iterations)

(* ------------------------------------------------------------------ *)
(* Operand-shape sweep: every opcode the fast slot compiler accepts,
   crossed with every operand kind the assembler can encode for each
   specifier's access, under values that reach the overflow, divide and
   byte-sign paths with integer-overflow traps enabled and disabled.
   Each case runs its instruction three times in a loop, so the first
   pass builds the block and the later passes execute compiled slots.
   Faults go to a handler that logs the saved PC and PSL and resumes
   after the instruction.  Both engines must agree on the outcome,
   registers, PSL, cycles, instruction count, the data page (operand
   cells and the fault log) and the stack page (exception frames). *)

type kind =
  | K_lit
  | K_imm
  | K_reg
  | K_deref
  | K_disp
  | K_pcrel
  | K_abs
  | K_nx
  | K_branch

let kind_name = function
  | K_lit -> "lit"
  | K_imm -> "imm"
  | K_reg -> "reg"
  | K_deref -> "deref"
  | K_disp -> "disp"
  | K_pcrel -> "pcrel"
  | K_abs -> "abs"
  | K_nx -> "nx"
  | K_branch -> "branch"

(* [K_nx] is an absolute address past the end of RAM: a machine check *)
let kinds_of_access = function
  | Opcode.Read -> [ K_lit; K_imm; K_reg; K_deref; K_disp; K_pcrel; K_abs; K_nx ]
  | Opcode.Write | Opcode.Modify -> [ K_reg; K_deref; K_disp; K_abs; K_nx ]
  | Opcode.Address -> [ K_deref; K_disp; K_pcrel; K_abs; K_nx ]
  | Opcode.Branch_byte | Opcode.Branch_word -> [ K_branch ]

let sweep_opcodes =
  Opcode.
    [
      Nop; Movl; Movb; Movzbl; Clrl; Clrb; Tstl; Tstb; Cmpl; Cmpb; Pushl;
      Moval; Incl; Decl; Mnegl; Addl2; Subl2; Mull2; Divl2; Bisl2; Bicl2;
      Xorl2; Addl3; Subl3; Mull3; Divl3; Bisl3; Bicl3; Xorl3; Brb; Brw;
      Bneq; Beql; Bgtr; Bleq; Bgeq; Blss; Bgtru; Blequ; Bvc; Bvs; Bcc; Bcs;
      Blbs; Blbc; Sobgtr; Aoblss; Bsbb; Jsb; Jmp; Rsb;
    ]

let sweep_pages = 64 (* 32 KB of RAM *)
let sweep_origin = 0x1000
let sweep_sp = 0x2000
let sweep_data = 0x2400 (* operand cells, then the fault log *)
let sweep_log = 0x2500
let sweep_scb = 0x3000
let sweep_nx = 0x10000
let sweep_disp = 8
let sweep_junk = 0xA5A5_A5A5 (* prior contents of a write-only operand *)
let cell i = sweep_data + (16 * i)

(* operand values: (first, second) read operands *)
let sweep_rows =
  [
    (3, 5);
    (0x7FFF_FFFF, 1) (* add overflow *);
    (0, 7) (* divide by zero *);
    (0xFFFF_FFFF, 0x8000_0000) (* mul/div overflow *);
    (0x80, 0xFF) (* byte sign *);
    (0x8000_0000, 3) (* sub/neg/dec overflow *);
  ]

let width_bytes = function Opcode.Byte -> 1 | Opcode.Word -> 2 | Opcode.Long -> 4

let fits8 d = d >= -128 && d <= 127

(* Emit one case: operand set-up, the PSW, the instruction, a
   fall-through marker, and the loop.  [cont] is the address of the
   label of the same name (jump targets need it before assembly). *)
let sweep_program ~op ~kinds ~vals ~psw ~cont a =
  let specs = Opcode.operands op in
  let is_jump = op = Opcode.Jmp || op = Opcode.Jsb in
  Asm.ins a Opcode.Movl [ Asm.Imm 3; Asm.R 11 ];
  Asm.label a "loop";
  Asm.ins a Opcode.Movl [ Asm.Imm sweep_sp; Asm.R Asm.sp ];
  if op = Opcode.Rsb then Asm.ins a Opcode.Pushl [ Asm.Imm cont ];
  let value i (access, _) =
    if access = Opcode.Write then sweep_junk else vals.(i)
  in
  let target i = if is_jump then cont else cell i in
  List.iteri
    (fun i ((spec, kind) : (Opcode.access * Opcode.width) * kind) ->
      let v = value i spec in
      match kind with
      | K_reg -> Asm.ins a Opcode.Movl [ Asm.Imm v; Asm.R i ]
      | K_deref | K_disp ->
          let disp = if kind = K_disp then sweep_disp else 0 in
          Asm.ins a Opcode.Movl [ Asm.Imm (target i - disp); Asm.R i ];
          Asm.ins a Opcode.Movl [ Asm.Imm v; Asm.Abs (cell i) ];
          (* on the last pass the base register points past RAM.  An
             operand that faults while being read never reaches the
             decode cache, so this is how a read fault happens inside
             a compiled slot ([K_nx] covers the decoder's) *)
          let skip = Asm.fresh_label a in
          Asm.ins a Opcode.Cmpl [ Asm.R 11; Asm.Lit 1 ];
          Asm.ins a Opcode.Bneq [ Asm.Branch skip ];
          Asm.ins a Opcode.Movl [ Asm.Imm (sweep_nx + (16 * i) - disp); Asm.R i ];
          Asm.label a skip
      | K_pcrel | K_abs -> Asm.ins a Opcode.Movl [ Asm.Imm v; Asm.Abs (cell i) ]
      | K_lit | K_imm | K_nx | K_branch -> ())
    (List.combine specs kinds);
  (* the set-up moves wrote the condition codes: set the PSW last *)
  Asm.ins a Opcode.Bicpsw [ Asm.Imm 0x2F ];
  Asm.ins a Opcode.Bispsw [ Asm.Imm psw ];
  (* PC-relative displacements are measured from the end of their own
     specifier *)
  let pos = ref (Asm.here a + 1) in
  let operands =
    List.mapi
      (fun i (((_, width) as spec), kind) ->
        let v = value i spec in
        let len n = pos := !pos + n in
        match kind with
        | K_branch -> Asm.Branch "cont"
        | K_lit -> len 1; Asm.Lit (v land 63)
        | K_imm ->
            len (1 + width_bytes width);
            Asm.Imm (if width = Opcode.Byte then v land 0xFF else v)
        | K_reg -> len 1; Asm.R i
        | K_deref -> len 1; Asm.Deref i
        | K_disp -> len 2; Asm.Disp (sweep_disp, i)
        | K_pcrel ->
            let d1 = target i - (!pos + 2) in
            if fits8 d1 then (len 2; Asm.Disp (d1, Asm.pc))
            else begin
              len 3;
              Asm.Disp (target i - !pos, Asm.pc)
            end
        | K_abs -> len 5; Asm.Abs (target i)
        | K_nx -> len 5; Asm.Abs (sweep_nx + (16 * i)))
      (List.combine specs kinds)
  in
  Asm.ins a op operands;
  Asm.ins a Opcode.Incl [ Asm.R 7 ];
  Asm.label a "cont";
  Asm.ins a Opcode.Sobgtr [ Asm.R 11; Asm.Branch "loop" ];
  Asm.ins a Opcode.Halt [];
  (* fault handlers by parameter count: drop the parameters, log the
     saved PC and PSL, resume at [cont] *)
  let handler name nparams =
    Asm.align a 4;
    Asm.label a name;
    if nparams > 0 then Asm.ins a Opcode.Addl2 [ Asm.Lit (4 * nparams); Asm.R Asm.sp ];
    Asm.ins a Opcode.Brw [ Asm.Branch "log" ]
  in
  handler "h0" 0;
  handler "h1" 1;
  handler "h2" 2;
  Asm.label a "log";
  Asm.ins a Opcode.Movl [ Asm.Deref Asm.sp; Asm.Disp (sweep_log, 10) ];
  Asm.ins a Opcode.Movl [ Asm.Disp (4, Asm.sp); Asm.Disp (sweep_log + 4, 10) ];
  Asm.ins a Opcode.Addl2 [ Asm.Lit 8; Asm.R 10 ];
  Asm.ins a Opcode.Moval [ Asm.Abs_label "cont"; Asm.Deref Asm.sp ];
  Asm.ins a Opcode.Rei []

(* The address of [cont], which jump targets need before assembly:
   assemble until it stops moving (PC-relative displacements change
   size with it). *)
let case_cont ~op ~kinds ~vals ~psw =
  let rec fix cont n =
    let a = Asm.create ~origin:sweep_origin in
    sweep_program ~op ~kinds ~vals ~psw ~cont a;
    let c = Asm.lookup (Asm.assemble a) "cont" in
    if c = cont || n = 0 then c else fix c (n - 1)
  in
  fix 0 4

let run_case engine program =
  let cpu, img =
    boot ~engine ~origin:sweep_origin ~memory_pages:sweep_pages program
  in
  let entry name = Asm.lookup img name lor 1 (* service on the IS *) in
  for v = 0 to 127 do
    Vax_mem.Phys_mem.write_long cpu.Cpu.phys (sweep_scb + (4 * v)) (entry "h0")
  done;
  List.iter
    (fun (vector, h) ->
      Vax_mem.Phys_mem.write_long cpu.Cpu.phys (sweep_scb + vector) (entry h))
    [
      (Scb.arithmetic, "h1");
      (Scb.machine_check, "h2");
      (Scb.access_violation, "h2");
      (Scb.translation_not_valid, "h2");
    ];
  cpu.Cpu.state.State.scbb <- sweep_scb;
  let status = Cpu.run cpu ~max_instructions:2000 () in
  let page base = Bytes.to_string (Vax_mem.Phys_mem.blit_out cpu.Cpu.phys base 512) in
  (status, cpu_summary cpu, page sweep_data, page (sweep_sp - 512))

let sweep_cases () =
  let cases = ref [] in
  List.iter
    (fun op ->
      let specs = Opcode.operands op in
      let is_branch = function
        | Opcode.Branch_byte | Opcode.Branch_word -> true
        | _ -> false
      in
      let rec cross = function
        | [] -> [ [] ]
        | (access, _) :: rest ->
            let tails = cross rest in
            List.concat_map
              (fun k -> List.map (fun t -> k :: t) tails)
              (kinds_of_access access)
      in
      let reads = List.exists (fun (acc, _) -> not (is_branch acc)) specs in
      (* branches on the condition codes alone see every CC pattern;
         everything else sees IV (and C, which moves keep) on and off *)
      let psws, rows =
        if reads then ([ 0x00; 0x21 ], sweep_rows)
        else (List.init 16 Fun.id, [ List.hd sweep_rows ])
      in
      let values =
        List.concat_map (fun row -> List.map (fun psw -> (row, psw)) psws) rows
      in
      (* three-operand opcodes have 320 kind combinations: each takes
         every fourth value case, in rotation, so every kind at every
         position still meets every value *)
      let combos = cross specs in
      let stride = if List.length combos > 64 then 4 else 1 in
      List.iteri
        (fun j kinds ->
          List.iteri
            (fun k ((x, y), psw) ->
              if k mod stride = j mod stride then
                cases := (op, kinds, [| x; y; sweep_junk |], psw) :: !cases)
            values)
        combos)
    sweep_opcodes;
  List.rev !cases

let test_operand_shape_sweep () =
  let cases = sweep_cases () in
  let diverged = ref [] and faulted = ref 0 and halted = ref 0 in
  List.iter
    (fun (op, kinds, vals, psw) ->
      let cont = case_cont ~op ~kinds ~vals ~psw in
      let program = sweep_program ~op ~kinds ~vals ~psw ~cont in
      let s = run_case Exec.Stepper program
      and b = run_case Exec.Blocks program in
      let status, _, data, _ = s in
      if status = Exec.Machine_halted then incr halted;
      if String.sub data (sweep_log - sweep_data) 4 <> "\000\000\000\000" then
        incr faulted;
      if s <> b then
        diverged :=
          Printf.sprintf "%s %s vals=%x,%x psw=%x" (Opcode.name op)
            (String.concat "," (List.map kind_name kinds))
            vals.(0) vals.(1) psw
          :: !diverged)
    cases;
  let n = List.length cases in
  Printf.printf "operand-shape sweep: %d cases, %d halted, %d faulted, %d diverged\n"
    n !halted !faulted (List.length !diverged);
  List.iteri
    (fun i d -> if i < 20 then Printf.printf "  diverged: %s\n" d)
    (List.rev !diverged);
  check_int "every case halts" n !halted;
  Alcotest.(check bool) "some cases fault" true (!faulted > 0);
  check_int "divergences" 0 (List.length !diverged)

let () =
  Alcotest.run "blocks"
    [
      ( "equivalence",
        [
          Alcotest.test_case "bare workloads: blocks = stepper" `Quick
            test_bare_workloads;
          Alcotest.test_case "vm workloads: blocks = stepper" `Quick
            test_vm_workloads;
          Alcotest.test_case "interrupt mid-block: same boundary" `Quick
            test_interrupt_mid_block;
          Alcotest.test_case "operand-shape sweep: blocks = stepper" `Quick
            test_operand_shape_sweep;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "smc inside a block" `Quick test_smc_inside_block;
          Alcotest.test_case "smc across blocks" `Quick test_smc_across_blocks;
          Alcotest.test_case "smc same-opcode operand patch" `Quick
            test_smc_operand_patch;
          Alcotest.test_case "page-straddler second-page store" `Quick
            test_straddler_invalidation;
          Alcotest.test_case "block table collision: blocks = stepper" `Quick
            test_table_collision;
        ] );
      ( "engagement",
        [
          Alcotest.test_case "block cache engages on workloads" `Quick
            test_block_cache_engages;
        ] );
    ]
