(* Static liveness pass tests.

   The solver unit tests pin down the backward analysis itself on
   directed programs: a full kill proves all four codes dead, a
   conditional branch keeps exactly its condition alive — including
   across a block boundary and around a loop back-edge — an unresolved
   computed jump forces all-live, constants fold only when vaxflow
   settles, and dead register writes are counted and (for R0..R13)
   recorded in the fact.  The summary tests pin the interprocedural
   pass: a callee's (gen, kill, clobber) summary lets a caller-side
   write stay provably dead across a resolved JSB/BSBB site, a computed
   call falls back to all-live, and a callee that moves the stack
   pointer escapes to top. *)

open Vax_arch
open Vax_analysis
module Asm = Vax_asm.Asm
module Disasm = Vax_asm.Disasm

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Solver unit tests on directed programs *)

let image_of ~origin f =
  let a = Asm.create ~origin in
  f a;
  let img = Asm.assemble a in
  { (Cfg.of_asm "t" img) with Cfg.entries = [ origin ] }

(* The fact recorded at the first instruction with [op], via the same
   CFG recovery the pass itself uses. *)
let fact_at facts image op =
  let cfg = Cfg.analyze image in
  let insns =
    List.sort_uniq compare
      (List.concat_map
         (fun (b : Cfg.block) ->
           List.map (fun (i : Disasm.insn) -> (i.Disasm.address, i)) b.Cfg.b_insns)
         cfg.Cfg.blocks)
  in
  match List.find_opt (fun (_, i) -> i.Disasm.opcode = Some op) insns with
  | None -> Alcotest.fail "opcode not found in recovered CFG"
  | Some (va, i) ->
      Block_facts.find facts ~va ~op ~len:i.Disasm.length

let cc_dead facts image op =
  match fact_at facts image op with
  | None -> Alcotest.fail "no fact at site"
  | Some f -> f.Block_facts.f_cc_dead

let nvc = Block_facts.n_bit lor Block_facts.v_bit lor Block_facts.c_bit

(* A straight line that overwrites every code before any read: all four
   bits are dead after the arithmetic op (MOVL keeps C, but the TSTL
   then kills it unread). *)
let test_full_kill () =
  let image =
    image_of ~origin:0x1000 (fun a ->
        Asm.ins a Opcode.Addl2 [ Asm.R 1; Asm.R 0 ];
        Asm.ins a Opcode.Movl [ Asm.Imm 5; Asm.R 2 ];
        Asm.ins a Opcode.Tstl [ Asm.R 2 ];
        Asm.ins a Opcode.Bneq [ Asm.Branch "end" ];
        Asm.label a "end";
        Asm.ins a Opcode.Halt [])
  in
  let facts, _ = Liveness.facts_of_images [ image ] in
  check_int "all codes dead after ADDL2" Block_facts.all_cc
    (cc_dead facts image Opcode.Addl2)

(* A conditional branch keeps exactly its condition alive: both arms of
   the BNEQ kill the codes immediately, so after the CMPL only Z (read
   by the branch) survives. *)
let test_branch_keeps_condition () =
  let image =
    image_of ~origin:0x1000 (fun a ->
        Asm.ins a Opcode.Cmpl [ Asm.R 0; Asm.R 1 ];
        Asm.ins a Opcode.Bneq [ Asm.Branch "taken" ];
        Asm.ins a Opcode.Tstl [ Asm.R 3 ];
        Asm.ins a Opcode.Brb [ Asm.Branch "end" ];
        Asm.label a "taken";
        Asm.ins a Opcode.Tstl [ Asm.R 4 ];
        Asm.label a "end";
        Asm.ins a Opcode.Halt [])
  in
  let facts, _ = Liveness.facts_of_images [ image ] in
  check_int "N, V, C dead after CMPL; Z live" nvc
    (cc_dead facts image Opcode.Cmpl)

(* The condition must survive a block boundary: the INCL's Z is read by
   a branch in the *next* block (after an unconditional BRB). *)
let test_cc_across_block_boundary () =
  let image =
    image_of ~origin:0x1000 (fun a ->
        Asm.ins a Opcode.Incl [ Asm.R 0 ];
        Asm.ins a Opcode.Brb [ Asm.Branch "l1" ];
        Asm.label a "l1";
        Asm.ins a Opcode.Bneq [ Asm.Branch "l2" ];
        Asm.ins a Opcode.Tstl [ Asm.R 1 ];
        Asm.label a "l2";
        Asm.ins a Opcode.Tstl [ Asm.R 2 ];
        Asm.ins a Opcode.Halt [])
  in
  let facts, _ = Liveness.facts_of_images [ image ] in
  check_int "Z flows across the BRB boundary" nvc
    (cc_dead facts image Opcode.Incl)

(* A loop: Z stays live around the back edge (the BNEQ reads what the
   DECL of the *next* iteration wrote), N/V/C die on both the back edge
   (DECL is a full writer) and the exit (TSTL).  The loop counter stays
   live at the loop head. *)
let test_loop_back_edge () =
  let origin = 0x1000 in
  let image =
    image_of ~origin (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 3; Asm.R 1 ];
        Asm.label a "loop";
        Asm.ins a Opcode.Decl [ Asm.R 1 ];
        Asm.ins a Opcode.Bneq [ Asm.Branch "loop" ];
        Asm.ins a Opcode.Tstl [ Asm.R 2 ];
        Asm.ins a Opcode.Halt [])
  in
  let facts, _ = Liveness.facts_of_images [ image ] in
  check_int "only Z live after DECL in the loop" nvc
    (cc_dead facts image Opcode.Decl);
  (* the entry block's solved live-out is the loop head's live-in: the
     counter register must be in it *)
  let cfg = Cfg.analyze image in
  let liveouts, _ = Liveness.solve_image cfg in
  match Hashtbl.find_opt liveouts origin with
  | None -> Alcotest.fail "entry block not solved"
  | Some m ->
      Alcotest.(check bool) "R1 live at loop head" true
        (Liveness.regs_of m land (1 lsl 1) <> 0)

(* An unresolved computed jump is an unknown successor: everything is
   live behind it, so the ADDL2 keeps all four codes. *)
let test_computed_jump_all_live () =
  let image =
    image_of ~origin:0x1000 (fun a ->
        Asm.ins a Opcode.Addl2 [ Asm.R 1; Asm.R 2 ];
        Asm.ins a Opcode.Jmp [ Asm.Deref 0 ])
  in
  let facts, _ = Liveness.facts_of_images [ image ] in
  check_int "nothing dead before a computed jump" 0
    (cc_dead facts image Opcode.Addl2)

(* Constant folding: vaxflow proves R0 = 5 at the ADDL2's read, the
   workload settles, so the fact carries the folded operand. *)
let test_const_fact () =
  let image =
    image_of ~origin:0x1000 (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 5; Asm.R 0 ];
        Asm.ins a Opcode.Addl2 [ Asm.R 0; Asm.R 1 ];
        Asm.ins a Opcode.Halt [])
  in
  let facts, stats = Liveness.facts_of_images [ image ] in
  Alcotest.(check bool) "analysis settled" true stats.Liveness.mode_sound;
  match fact_at facts image Opcode.Addl2 with
  | None -> Alcotest.fail "no fact at ADDL2"
  | Some f ->
      Alcotest.(check (list (pair int int)))
        "operand 0 folded to 5"
        [ (0, 5) ]
        f.Block_facts.f_consts

(* Dead register writes are counted, and — for R0..R13 — recorded in
   the fact's dead-register mask. *)
let test_dead_reg_write_counted () =
  let image =
    image_of ~origin:0x1000 (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 1; Asm.R 5 ];
        Asm.ins a Opcode.Movl [ Asm.Imm 2; Asm.R 5 ];
        Asm.ins a Opcode.Tstl [ Asm.R 5 ];
        Asm.ins a Opcode.Halt [])
  in
  let facts, _ = Liveness.facts_of_images [ image ] in
  Alcotest.(check bool) "first write to R5 detected dead" true
    (facts.Block_facts.dead_reg_writes >= 1);
  match fact_at facts image Opcode.Movl with
  | None -> Alcotest.fail "no fact at the dead MOVL"
  | Some f ->
      check_int "R5 recorded in the dead-register mask" (1 lsl 5)
        (f.Block_facts.f_dead_regs land (1 lsl 5))

(* ------------------------------------------------------------------ *)
(* Interprocedural summary tests *)

(* A write that is dead only because the callee's summary proves the
   callee never reads the register: without the interprocedural pass
   the BSBB would force all-live and the first MOVL would stay live.
   This is the fact-survives-a-call-site property the whole pass
   exists for. *)
let test_dead_across_call () =
  let image =
    image_of ~origin:0x1000 (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 1; Asm.R 5 ];
        Asm.ins a Opcode.Bsbb [ Asm.Branch "leaf" ];
        Asm.ins a Opcode.Movl [ Asm.Imm 2; Asm.R 5 ];
        Asm.ins a Opcode.Tstl [ Asm.R 5 ];
        Asm.ins a Opcode.Halt [];
        Asm.label a "leaf";
        Asm.ins a Opcode.Movl [ Asm.Imm 9; Asm.R 0 ];
        Asm.ins a Opcode.Rsb [])
  in
  let facts, _ = Liveness.facts_of_images [ image ] in
  Alcotest.(check bool) "call site solved through the summary" true
    (facts.Block_facts.summary_calls >= 1);
  check_int "no fallback on a resolved call" 0
    facts.Block_facts.summary_fallbacks;
  match fact_at facts image Opcode.Movl with
  | None -> Alcotest.fail "no fact at the MOVL before the call"
  | Some f ->
      check_int "R5 write dead across the BSBB" (1 lsl 5)
        (f.Block_facts.f_dead_regs land (1 lsl 5))

(* The same caller with a computed callee: no summary applies, the
   call is all-read/all-clobbered, and the write before it stays
   live. *)
let test_computed_call_fallback () =
  let image =
    image_of ~origin:0x1000 (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 1; Asm.R 5 ];
        Asm.ins a Opcode.Jsb [ Asm.Deref 0 ];
        Asm.ins a Opcode.Movl [ Asm.Imm 2; Asm.R 5 ];
        Asm.ins a Opcode.Tstl [ Asm.R 5 ];
        Asm.ins a Opcode.Halt [])
  in
  let facts, _ = Liveness.facts_of_images [ image ] in
  check_int "no summary solves a computed call" 0
    facts.Block_facts.summary_calls;
  match fact_at facts image Opcode.Movl with
  | None -> ()
  | Some f ->
      check_int "R5 stays live into the unknown callee" 0
        (f.Block_facts.f_dead_regs land (1 lsl 5))

(* The summary lattice on a directed leaf: reads R1 (and SP through
   the RSB), kills and clobbers R0, leaves R5 untouched. *)
let test_leaf_summary () =
  let origin = 0x1000 in
  let image =
    image_of ~origin (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 9; Asm.R 0 ];
        Asm.ins a Opcode.Xorl2 [ Asm.R 1; Asm.R 0 ];
        Asm.ins a Opcode.Rsb [])
  in
  let t = Summaries.of_cfg (Cfg.analyze image) in
  match Summaries.find t origin with
  | None -> Alcotest.fail "no summary at the leaf entry"
  | Some s ->
      Alcotest.(check bool) "usable" true (Summaries.usable s);
      Alcotest.(check bool) "reads R1" true
        (s.Summaries.sg land Summaries.reg_bit 1 <> 0);
      check_int "does not read R0" 0 (s.Summaries.sg land Summaries.reg_bit 0);
      Alcotest.(check bool) "kills R0" true
        (s.Summaries.sk land Summaries.reg_bit 0 <> 0);
      Alcotest.(check bool) "clobbers R0" true (s.Summaries.sc land 1 <> 0);
      check_int "does not clobber R5" 0 (s.Summaries.sc land (1 lsl 5))

(* A callee that moves the stack pointer breaks the well-behaved-stack
   assumption the lattice rests on: its summary must escape to top and
   never be applied at a call site. *)
let test_sp_write_escapes () =
  let origin = 0x1000 in
  let image =
    image_of ~origin (fun a ->
        Asm.ins a Opcode.Movl [ Asm.Imm 0x800; Asm.R 14 ];
        Asm.ins a Opcode.Rsb [])
  in
  let t = Summaries.of_cfg (Cfg.analyze image) in
  match Summaries.find t origin with
  | None -> Alcotest.fail "no summary at the leaf entry"
  | Some s ->
      Alcotest.(check bool) "summary escapes to top" true (Summaries.is_top s);
      Alcotest.(check bool) "never usable at a call site" false
        (Summaries.usable s)

let () =
  Alcotest.run "liveness"
    [
      ( "solver",
        [
          Alcotest.test_case "full kill: all codes dead" `Quick test_full_kill;
          Alcotest.test_case "branch keeps its condition" `Quick
            test_branch_keeps_condition;
          Alcotest.test_case "cc across a block boundary" `Quick
            test_cc_across_block_boundary;
          Alcotest.test_case "loop back edge" `Quick test_loop_back_edge;
          Alcotest.test_case "computed jump keeps all live" `Quick
            test_computed_jump_all_live;
          Alcotest.test_case "constant operand fact" `Quick test_const_fact;
          Alcotest.test_case "dead register write counted" `Quick
            test_dead_reg_write_counted;
        ] );
      ( "summaries",
        [
          Alcotest.test_case "write dead across a resolved call" `Quick
            test_dead_across_call;
          Alcotest.test_case "computed call falls back" `Quick
            test_computed_call_fallback;
          Alcotest.test_case "leaf summary lattice" `Quick test_leaf_summary;
          Alcotest.test_case "SP write escapes to top" `Quick
            test_sp_write_escapes;
        ] );
    ]
