open Vax_arch
open Vax_mem

type status = Stepped | Machine_halted | Stopped

(* ------------------------------------------------------------------ *)
(* Condition-code helpers                                              *)

let set_nzvc st ~n ~z ~v ~c =
  st.State.psl <- Psl.with_nzvc st.State.psl ~n ~z ~v ~c

let set_nz_keep_c st value =
  let n = Word.to_signed value < 0 and z = value = 0 in
  set_nzvc st ~n ~z ~v:false ~c:(Psl.c st.State.psl)

let set_nz_byte_keep_c st value =
  let v = value land 0xFF in
  let n = v land 0x80 <> 0 and z = v = 0 in
  set_nzvc st ~n ~z ~v:false ~c:(Psl.c st.State.psl)

let check_overflow_trap st =
  if Psl.v st.State.psl && Psl.iv st.State.psl then
    raise (State.Fault (State.Arithmetic_trap 1))

(* ------------------------------------------------------------------ *)
(* Privilege / virtualization gates                                    *)

let in_vm st = st.State.variant = Variant.Virtualizing && Psl.vm st.State.psl

let vm_kernel st = in_vm st && Psl.cur st.State.vmpsl = Mode.Kernel

(* Privileged instructions: VM-emulation trap when the VM thinks it is in
   kernel mode, privileged-instruction trap otherwise (paper §4.4.1). *)
let check_privileged st d ~start_pc =
  if in_vm st then
    if vm_kernel st then Microcode.vm_emulation_trap st d ~start_pc
    else raise (State.Fault State.Privileged_instruction)
  else if State.cur_mode st <> Mode.Kernel then
    raise (State.Fault State.Privileged_instruction)

(* Sensitive but unprivileged instructions (CHM, REI, and PROBE on an
   invalid PTE): trap whenever PSL<VM> is set, regardless of mode. *)
let vm_sensitive_trap st d ~start_pc =
  if in_vm st then Microcode.vm_emulation_trap st d ~start_pc

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)

let do_add st a b =
  let r = Word.add a b in
  let sa = Word.to_signed a < 0 and sb = Word.to_signed b < 0 in
  let sr = Word.to_signed r < 0 in
  let v = sa = sb && sr <> sa in
  let c = a + b > 0xFFFF_FFFF in
  set_nzvc st ~n:sr ~z:(r = 0) ~v ~c;
  r

let do_sub st a b =
  (* a - b *)
  let r = Word.sub a b in
  let sa = Word.to_signed a < 0 and sb = Word.to_signed b < 0 in
  let sr = Word.to_signed r < 0 in
  let v = sa <> sb && sr <> sa in
  let c = a < b in
  set_nzvc st ~n:sr ~z:(r = 0) ~v ~c;
  r

let do_mul st a b =
  let wide = Word.to_signed a * Word.to_signed b in
  let r = Word.of_signed wide in
  let v = wide < -0x8000_0000 || wide > 0x7FFF_FFFF in
  set_nzvc st ~n:(Word.to_signed r < 0) ~z:(r = 0) ~v ~c:false;
  r

let do_div st a b =
  (* a / b, VAX operand order handled by caller *)
  match Word.div a b with
  | None ->
      st.State.psl <- Psl.with_v st.State.psl true;
      raise (State.Fault (State.Arithmetic_trap 2))
  | Some r ->
      set_nzvc st ~n:(Word.to_signed r < 0) ~z:(r = 0) ~v:false ~c:false;
      r

(* Takes the result, not the operation: without flambda, a function
   passed as an argument stays an indirect call even once inlined. *)
let do_logic st r =
  set_nzvc st ~n:(Word.to_signed r < 0) ~z:(r = 0) ~v:false
    ~c:(Psl.c st.State.psl);
  r

let compare_long st a b =
  set_nzvc st
    ~n:(Word.to_signed a < Word.to_signed b)
    ~z:(a = b) ~v:false ~c:(a < b)

let compare_byte st a b =
  let sa = Word.to_signed (Word.sext ~width:8 a) in
  let sb = Word.to_signed (Word.sext ~width:8 b) in
  set_nzvc st ~n:(sa < sb) ~z:(sa = sb) ~v:false
    ~c:(a land 0xFF < b land 0xFF)

(* ------------------------------------------------------------------ *)
(* PROBE                                                               *)

let probe_previous_mode st =
  if in_vm st then Psl.prv st.State.vmpsl else Psl.prv st.State.psl

let probe_one_byte st d ~start_pc ~mode ~write va =
  match
    (try Mmu.probe st.State.mmu ~mode ~write va
     with
     | Phys_mem.Nonexistent_memory pa ->
         raise
           (State.Fault
              (State.Machine_check_fault
                 { mc_code = State.mc_nonexistent; mc_pa = pa }))
     | Vax_fault.Engine.Parity_error pa ->
         raise
           (State.Fault
              (State.Machine_check_fault
                 { mc_code = State.mc_parity; mc_pa = pa })))
  with
  | Error f -> raise (State.Fault (State.Mm_fault f))
  | Ok { Mmu.accessible; pte_valid } ->
      (* Modified VAX: a PROBE that would read a not-yet-filled shadow PTE
         cannot trust its protection field; trap to the VMM instead
         (paper §4.3.2). *)
      if in_vm st && not pte_valid then
        Microcode.vm_emulation_trap st d ~start_pc
      else accessible

let exec_probe st d ~start_pc ~write ops =
  match ops with
  | [ mode_op; len_op; base_op ] ->
      let requested = Mode.of_int (Decode.read_value st mode_op land 3) in
      let probe_mode =
        Mode.least_privileged (probe_previous_mode st) requested
      in
      let len =
        let l = Decode.read_value st len_op land 0xFFFF in
        if l = 0 then 1 else l
      in
      let base =
        match base_op.Decode.loc with
        | Decode.Mem va -> va
        | Decode.Reg _ | Decode.Imm _ ->
            raise (State.Fault State.Reserved_addressing)
      in
      let first = probe_one_byte st d ~start_pc ~mode:probe_mode ~write base in
      let last =
        probe_one_byte st d ~start_pc ~mode:probe_mode ~write
          (Word.add base (len - 1))
      in
      let accessible = first && last in
      set_nzvc st ~n:false ~z:(not accessible) ~v:false ~c:false
  | _ -> assert false

let exec_probevm st ~write ops =
  match ops with
  | [ mode_op; base_op ] ->
      let requested = Mode.of_int (Decode.read_value st mode_op land 3) in
      (* probe mode no more privileged than executive (paper Table 2) *)
      let probe_mode = Mode.least_privileged requested Mode.Executive in
      let base =
        match base_op.Decode.loc with
        | Decode.Mem va -> va
        | Decode.Reg _ | Decode.Imm _ ->
            raise (State.Fault State.Reserved_addressing)
      in
      if not (Mmu.mapen st.State.mmu) then
        set_nzvc st ~n:false ~z:false ~v:false ~c:false
      else begin
        match
          (try Mmu.read_pte st.State.mmu base
           with
           | Phys_mem.Nonexistent_memory pa ->
               raise
                 (State.Fault
                    (State.Machine_check_fault
                       { mc_code = State.mc_nonexistent; mc_pa = pa }))
           | Vax_fault.Engine.Parity_error pa ->
               raise
                 (State.Fault
                    (State.Machine_check_fault
                       { mc_code = State.mc_parity; mc_pa = pa })))
        with
        | Error (Mmu.Access_violation { length_violation = true; _ }) ->
            set_nzvc st ~n:false ~z:true ~v:false ~c:false
        | Error f -> raise (State.Fault (State.Mm_fault f))
        | Ok (pte, _) ->
            let prot = Pte.prot pte in
            let ok =
              (if write then Protection.can_write else Protection.can_read)
                prot probe_mode
            in
            (* protection, validity, modify — in that order *)
            set_nzvc st ~n:false ~z:(not ok)
              ~v:(not (Pte.valid pte))
              ~c:(write && not (Pte.modify pte))
      end
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* MTPR / MFPR with the optional IPL microcode assist                  *)

let ipl_regnum = Ipr.to_int Ipr.IPL

let exec_mtpr st d ~start_pc ops =
  match ops with
  | [ src; regnum_op ] ->
      let value = Decode.read_value st src in
      let regnum = Decode.read_value st regnum_op in
      if in_vm st then begin
        if not (vm_kernel st) then
          raise (State.Fault State.Privileged_instruction);
        if st.State.ipl_assist && Word.mask regnum = ipl_regnum then begin
          (* VAX-11/730-style assist: maintain the VM's IPL in microcode,
             trapping only when the new level would make a pending virtual
             interrupt deliverable (paper §7.3). *)
          let new_ipl = value land 31 in
          if new_ipl < st.State.vmpend then
            Microcode.vm_emulation_trap st d ~start_pc
          else st.State.vmpsl <- Psl.with_ipl st.State.vmpsl new_ipl
        end
        else Microcode.vm_emulation_trap st d ~start_pc
      end
      else begin
        if State.cur_mode st <> Mode.Kernel then
          raise (State.Fault State.Privileged_instruction);
        Microcode.mtpr st ~value ~regnum
      end
  | _ -> assert false

let exec_mfpr st d ~start_pc ops =
  match ops with
  | [ regnum_op; dst ] ->
      let regnum = Decode.read_value st regnum_op in
      if in_vm st then begin
        if not (vm_kernel st) then
          raise (State.Fault State.Privileged_instruction);
        if st.State.ipl_assist && Word.mask regnum = ipl_regnum then
          Decode.write_value st dst (Psl.ipl st.State.vmpsl)
        else Microcode.vm_emulation_trap st d ~start_pc
      end
      else begin
        if State.cur_mode st <> Mode.Kernel then
          raise (State.Fault State.Privileged_instruction);
        let v = Microcode.mfpr st ~regnum in
        Decode.write_value st dst v
      end
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* The big dispatch                                                    *)

let branch_to st op =
  match op.Decode.branch_target with
  | Some t -> State.set_pc st t
  | None -> assert false

let cond_branch st d cond =
  match d.Decode.operands with
  | [ op ] ->
      if cond then branch_to st op else State.set_pc st d.Decode.next_pc
  | _ -> assert false

(* PROBE itself executes in VM mode without trapping when the PTE is
   valid; the trap decision is inside [probe_one_byte].  This hook exists
   to keep the dispatch uniform and documented. *)
let vm_sensitive_trap_noop _st = ()

(* Per-opcode handlers: the big dispatch resolved once per opcode rather
   than per executed instruction.  A handler returns [true] when the
   instruction set the PC itself.  [execute] still pays the dispatch on
   every step; block slots resolve it at build time and then reuse the
   handler for the life of the block. *)

type handler = State.t -> Decode.decoded -> start_pc:Word.t -> bool

(* operand-count mismatch: impossible for decoded instructions *)
let bad_operands () = assert false

let handler_of : Opcode.t -> handler = function
  | Opcode.Nop -> (fun _st _d ~start_pc:_ -> false)
  | Opcode.Halt ->
      (fun st d ~start_pc ->
        check_privileged st d ~start_pc;
        st.State.halted <- true;
        true (* leave PC at the HALT *))
  | Opcode.Bpt -> (fun _st _d ~start_pc:_ -> raise (State.Fault State.Breakpoint_fault))
  | Opcode.Rei ->
      (fun st d ~start_pc ->
        vm_sensitive_trap st d ~start_pc;
        Microcode.rei st;
        true)
  | Opcode.Ldpctx ->
      (fun st d ~start_pc ->
        check_privileged st d ~start_pc;
        Microcode.ldpctx st;
        false)
  | Opcode.Svpctx ->
      (fun st d ~start_pc ->
        check_privileged st d ~start_pc;
        Microcode.svpctx st;
        false)
  | Opcode.Wait ->
      (* Not implemented by real processors, modified or not (Table 4:
         "no change"); the VMM catches the VM-emulation trap and
         deschedules the VM.  Bare kernels must not use it. *)
      (fun st d ~start_pc ->
        check_privileged st d ~start_pc;
        raise (State.Fault State.Privileged_instruction))
  | Opcode.Chmk | Opcode.Chme | Opcode.Chms | Opcode.Chmu ->
      (fun st d ~start_pc ->
        match d.Decode.operands with
        | [ code_op ] ->
            vm_sensitive_trap st d ~start_pc;
            let target = Option.get (Opcode.chm_target d.Decode.opcode) in
            let code = Decode.read_value st code_op in
            Microcode.chm st ~target ~code ~next_pc:d.Decode.next_pc;
            true
        | _ -> bad_operands ())
  | Opcode.Prober ->
      (fun st d ~start_pc ->
        vm_sensitive_trap_noop st;
        exec_probe st d ~start_pc ~write:false d.Decode.operands;
        false)
  | Opcode.Probew ->
      (fun st d ~start_pc ->
        vm_sensitive_trap_noop st;
        exec_probe st d ~start_pc ~write:true d.Decode.operands;
        false)
  | Opcode.Probevmr ->
      (fun st d ~start_pc ->
        check_privileged st d ~start_pc;
        exec_probevm st ~write:false d.Decode.operands;
        false)
  | Opcode.Probevmw ->
      (fun st d ~start_pc ->
        check_privileged st d ~start_pc;
        exec_probevm st ~write:true d.Decode.operands;
        false)
  | Opcode.Movpsl ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ dst ] ->
            Decode.write_value st dst (Microcode.movpsl_value st);
            false
        | _ -> bad_operands ())
  | Opcode.Mtpr ->
      (fun st d ~start_pc ->
        exec_mtpr st d ~start_pc d.Decode.operands;
        false)
  | Opcode.Mfpr ->
      (fun st d ~start_pc ->
        exec_mfpr st d ~start_pc d.Decode.operands;
        false)
  | Opcode.Bispsw ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src ] ->
            let v = Decode.read_value st src in
            if v land 0xFF00 <> 0 then raise (State.Fault State.Reserved_operand);
            st.State.psl <- Word.logor st.State.psl (v land 0xFF);
            false
        | _ -> bad_operands ())
  | Opcode.Bicpsw ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src ] ->
            let v = Decode.read_value st src in
            if v land 0xFF00 <> 0 then raise (State.Fault State.Reserved_operand);
            st.State.psl <- Word.logand st.State.psl (Word.lognot (v land 0xFF));
            false
        | _ -> bad_operands ())
  | Opcode.Movl ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src; dst ] ->
            let v = Decode.read_value st src in
            Decode.write_value st dst v;
            set_nz_keep_c st v;
            false
        | _ -> bad_operands ())
  | Opcode.Pushl ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src ] ->
            let v = Decode.read_value st src in
            State.push_long st v;
            set_nz_keep_c st v;
            false
        | _ -> bad_operands ())
  | Opcode.Moval ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src; dst ] ->
            let va =
              match src.Decode.loc with
              | Decode.Mem va -> va
              | Decode.Reg _ | Decode.Imm _ ->
                  raise (State.Fault State.Reserved_addressing)
            in
            Decode.write_value st dst va;
            set_nz_keep_c st va;
            false
        | _ -> bad_operands ())
  | Opcode.Clrl ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ dst ] ->
            Decode.write_value st dst 0;
            set_nz_keep_c st 0;
            false
        | _ -> bad_operands ())
  | Opcode.Clrb ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ dst ] ->
            Decode.write_value st dst 0;
            set_nz_byte_keep_c st 0;
            false
        | _ -> bad_operands ())
  | Opcode.Tstl ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src ] ->
            let v = Decode.read_value st src in
            set_nzvc st ~n:(Word.to_signed v < 0) ~z:(v = 0) ~v:false ~c:false;
            false
        | _ -> bad_operands ())
  | Opcode.Tstb ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src ] ->
            let v = Decode.read_value st src land 0xFF in
            set_nzvc st ~n:(v land 0x80 <> 0) ~z:(v = 0) ~v:false ~c:false;
            false
        | _ -> bad_operands ())
  | Opcode.Movb ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src; dst ] ->
            let v = Decode.read_value st src land 0xFF in
            Decode.write_value st dst v;
            set_nz_byte_keep_c st v;
            false
        | _ -> bad_operands ())
  | Opcode.Movzbl ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src; dst ] ->
            let v = Decode.read_value st src land 0xFF in
            Decode.write_value st dst v;
            set_nzvc st ~n:false ~z:(v = 0) ~v:false ~c:(Psl.c st.State.psl);
            false
        | _ -> bad_operands ())
  | Opcode.Cmpl ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ a; b ] ->
            compare_long st (Decode.read_value st a) (Decode.read_value st b);
            false
        | _ -> bad_operands ())
  | Opcode.Cmpb ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ a; b ] ->
            compare_byte st (Decode.read_value st a) (Decode.read_value st b);
            false
        | _ -> bad_operands ())
  | Opcode.Incl ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ dst ] ->
            let r = do_add st (Decode.read_value st dst) 1 in
            Decode.write_value st dst r;
            check_overflow_trap st;
            false
        | _ -> bad_operands ())
  | Opcode.Decl ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ dst ] ->
            let r = do_sub st (Decode.read_value st dst) 1 in
            Decode.write_value st dst r;
            check_overflow_trap st;
            false
        | _ -> bad_operands ())
  | Opcode.Mnegl ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src; dst ] ->
            let r = do_sub st 0 (Decode.read_value st src) in
            Decode.write_value st dst r;
            check_overflow_trap st;
            false
        | _ -> bad_operands ())
  | Opcode.Ashl ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ cnt_op; src; dst ] ->
            let cnt = Decode.read_value st cnt_op in
            let s = Decode.read_value st src in
            let r = Word.ashl ~cnt s in
            Decode.write_value st dst r;
            set_nzvc st ~n:(Word.to_signed r < 0) ~z:(r = 0)
              ~v:(Word.ashl_overflows ~cnt s) ~c:false;
            false
        | _ -> bad_operands ())
  | Opcode.Addl2 ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src; dst ] ->
            let r = do_add st (Decode.read_value st dst) (Decode.read_value st src) in
            Decode.write_value st dst r;
            check_overflow_trap st;
            false
        | _ -> bad_operands ())
  | Opcode.Addl3 ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ a; b; dst ] ->
            let r = do_add st (Decode.read_value st a) (Decode.read_value st b) in
            Decode.write_value st dst r;
            check_overflow_trap st;
            false
        | _ -> bad_operands ())
  | Opcode.Subl2 ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src; dst ] ->
            let r = do_sub st (Decode.read_value st dst) (Decode.read_value st src) in
            Decode.write_value st dst r;
            check_overflow_trap st;
            false
        | _ -> bad_operands ())
  | Opcode.Subl3 ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ a; b; dst ] ->
            (* dst <- b - a *)
            let r = do_sub st (Decode.read_value st b) (Decode.read_value st a) in
            Decode.write_value st dst r;
            check_overflow_trap st;
            false
        | _ -> bad_operands ())
  | Opcode.Mull2 ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src; dst ] ->
            let r = do_mul st (Decode.read_value st dst) (Decode.read_value st src) in
            Decode.write_value st dst r;
            check_overflow_trap st;
            false
        | _ -> bad_operands ())
  | Opcode.Mull3 ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ a; b; dst ] ->
            let r = do_mul st (Decode.read_value st a) (Decode.read_value st b) in
            Decode.write_value st dst r;
            check_overflow_trap st;
            false
        | _ -> bad_operands ())
  | Opcode.Divl2 ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src; dst ] ->
            let r = do_div st (Decode.read_value st dst) (Decode.read_value st src) in
            Decode.write_value st dst r;
            false
        | _ -> bad_operands ())
  | Opcode.Divl3 ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ a; b; dst ] ->
            (* dst <- b / a *)
            let r = do_div st (Decode.read_value st b) (Decode.read_value st a) in
            Decode.write_value st dst r;
            false
        | _ -> bad_operands ())
  | Opcode.Bisl2 ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src; dst ] ->
            let r =
              do_logic st
                (Word.logor (Decode.read_value st dst)
                   (Decode.read_value st src))
            in
            Decode.write_value st dst r;
            false
        | _ -> bad_operands ())
  | Opcode.Bisl3 ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ a; b; dst ] ->
            let r =
              do_logic st
                (Word.logor (Decode.read_value st a) (Decode.read_value st b))
            in
            Decode.write_value st dst r;
            false
        | _ -> bad_operands ())
  | Opcode.Bicl2 ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src; dst ] ->
            let r =
              do_logic st
                (Word.logand (Decode.read_value st dst)
                   (Word.lognot (Decode.read_value st src)))
            in
            Decode.write_value st dst r;
            false
        | _ -> bad_operands ())
  | Opcode.Bicl3 ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ a; b; dst ] ->
            (* dst <- b AND NOT a *)
            let bv = Decode.read_value st b in
            let av = Decode.read_value st a in
            let r = do_logic st (Word.logand bv (Word.lognot av)) in
            Decode.write_value st dst r;
            false
        | _ -> bad_operands ())
  | Opcode.Xorl2 ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src; dst ] ->
            let r =
              do_logic st
                (Word.logxor (Decode.read_value st dst)
                   (Decode.read_value st src))
            in
            Decode.write_value st dst r;
            false
        | _ -> bad_operands ())
  | Opcode.Xorl3 ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ a; b; dst ] ->
            let r =
              do_logic st
                (Word.logxor (Decode.read_value st a) (Decode.read_value st b))
            in
            Decode.write_value st dst r;
            false
        | _ -> bad_operands ())
  | Opcode.Brb | Opcode.Brw ->
      (fun st d ~start_pc:_ ->
        cond_branch st d true;
        true)
  | Opcode.Bneq ->
      (fun st d ~start_pc:_ ->
        cond_branch st d (not (Psl.z st.State.psl));
        true)
  | Opcode.Beql ->
      (fun st d ~start_pc:_ ->
        cond_branch st d (Psl.z st.State.psl);
        true)
  | Opcode.Bgtr ->
      (fun st d ~start_pc:_ ->
        cond_branch st d (not (Psl.n st.State.psl || Psl.z st.State.psl));
        true)
  | Opcode.Bleq ->
      (fun st d ~start_pc:_ ->
        cond_branch st d (Psl.n st.State.psl || Psl.z st.State.psl);
        true)
  | Opcode.Bgeq ->
      (fun st d ~start_pc:_ ->
        cond_branch st d (not (Psl.n st.State.psl));
        true)
  | Opcode.Blss ->
      (fun st d ~start_pc:_ ->
        cond_branch st d (Psl.n st.State.psl);
        true)
  | Opcode.Bgtru ->
      (fun st d ~start_pc:_ ->
        cond_branch st d (not (Psl.c st.State.psl || Psl.z st.State.psl));
        true)
  | Opcode.Blequ ->
      (fun st d ~start_pc:_ ->
        cond_branch st d (Psl.c st.State.psl || Psl.z st.State.psl);
        true)
  | Opcode.Bvc ->
      (fun st d ~start_pc:_ ->
        cond_branch st d (not (Psl.v st.State.psl));
        true)
  | Opcode.Bvs ->
      (fun st d ~start_pc:_ ->
        cond_branch st d (Psl.v st.State.psl);
        true)
  | Opcode.Bcc ->
      (fun st d ~start_pc:_ ->
        cond_branch st d (not (Psl.c st.State.psl));
        true)
  | Opcode.Bcs ->
      (fun st d ~start_pc:_ ->
        cond_branch st d (Psl.c st.State.psl);
        true)
  | Opcode.Blbs ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src; disp ] ->
            if Decode.read_value st src land 1 = 1 then branch_to st disp
            else State.set_pc st d.Decode.next_pc;
            true
        | _ -> bad_operands ())
  | Opcode.Blbc ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ src; disp ] ->
            if Decode.read_value st src land 1 = 0 then branch_to st disp
            else State.set_pc st d.Decode.next_pc;
            true
        | _ -> bad_operands ())
  | Opcode.Aoblss ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ limit; index; disp ] ->
            let r = do_add st (Decode.read_value st index) 1 in
            Decode.write_value st index r;
            if Word.signed_lt r (Decode.read_value st limit) then
              branch_to st disp
            else State.set_pc st d.Decode.next_pc;
            true
        | _ -> bad_operands ())
  | Opcode.Sobgtr ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ index; disp ] ->
            let r = do_sub st (Decode.read_value st index) 1 in
            Decode.write_value st index r;
            if Word.to_signed r > 0 then branch_to st disp
            else State.set_pc st d.Decode.next_pc;
            true
        | _ -> bad_operands ())
  | Opcode.Bsbb ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ disp ] ->
            State.push_long st d.Decode.next_pc;
            branch_to st disp;
            true
        | _ -> bad_operands ())
  | Opcode.Jsb ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ dst ] -> (
            match dst.Decode.loc with
            | Decode.Mem va ->
                State.push_long st d.Decode.next_pc;
                State.set_pc st va;
                true
            | Decode.Reg _ | Decode.Imm _ ->
                raise (State.Fault State.Reserved_addressing))
        | _ -> bad_operands ())
  | Opcode.Rsb ->
      (fun st _d ~start_pc:_ ->
        State.set_pc st (State.pop_long st);
        true)
  | Opcode.Jmp ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ dst ] -> (
            match dst.Decode.loc with
            | Decode.Mem va ->
                State.set_pc st va;
                true
            | Decode.Reg _ | Decode.Imm _ ->
                raise (State.Fault State.Reserved_addressing))
        | _ -> bad_operands ())
  | Opcode.Calls ->
      (fun st d ~start_pc:_ ->
        match d.Decode.operands with
        | [ narg; dst ] -> (
            match dst.Decode.loc with
            | Decode.Mem va ->
                let n = Decode.read_value st narg in
                State.push_long st n;
                let arg_base = State.sp st in
                State.push_long st d.Decode.next_pc;
                State.push_long st (State.reg st 13) (* FP *);
                State.push_long st (State.reg st 12) (* AP *);
                State.set_reg st 13 (State.sp st);
                State.set_reg st 12 arg_base;
                State.set_pc st va;
                true
            | Decode.Reg _ | Decode.Imm _ ->
                raise (State.Fault State.Reserved_addressing))
        | _ -> bad_operands ())
  | Opcode.Ret ->
      (fun st _d ~start_pc:_ ->
        State.set_sp st (State.reg st 13);
        State.set_reg st 12 (State.pop_long st);
        State.set_reg st 13 (State.pop_long st);
        let ret_pc = State.pop_long st in
        let n = State.pop_long st in
        State.set_sp st (Word.add (State.sp st) (4 * (n land 0xFF)));
        State.set_pc st ret_pc;
        true)

let execute st (d : Decode.decoded) ~start_pc =
  (handler_of d.Decode.opcode) st d ~start_pc

(* ------------------------------------------------------------------ *)
(* Step                                                                *)

let enc_int op =
  match Opcode.encoding op with
  | [ b ] -> b
  | [ p; b ] -> (p lsl 8) lor b
  | _ -> 0

(* Count an instruction that finished evaluating its operands; the
   result says whether it runs in a VM. *)
let[@inline] commit st =
  st.State.instructions <- st.State.instructions + 1;
  let was_vm = Psl.vm st.State.psl in
  if was_vm then st.State.vm_instructions <- st.State.vm_instructions + 1;
  was_vm

(* The instruction completed without faulting. *)
let[@inline] retire st enc start_pc was_vm =
  let tr = st.State.trace in
  if Vax_obs.Trace.enabled tr then
    Vax_obs.Trace.emit tr Vax_obs.Trace.Retire ~b:enc
      ~c:(if was_vm then 1 else 0)
      start_pc

(* The post-decode half of a step, shared verbatim between the per-step
   loop and the block engine's cold path so the two engines agree on
   counter/charge/retire order by construction. *)
let run_decoded st (d : Decode.decoded) ~start_pc =
  let was_vm = commit st in
  Cycles.charge st.State.clock (Opcode.base_cycles d.Decode.opcode);
  let pc_set = execute st d ~start_pc in
  if not pc_set then State.set_pc st d.Decode.next_pc;
  retire st (enc_int d.Decode.opcode) start_pc was_vm

let fault_finish st decoded ~start_pc f =
  let next_pc =
    match decoded with Some d -> d.Decode.next_pc | None -> start_pc
  in
  (* fault-style exceptions back out operand side effects; trap-style
     (arithmetic) leave them applied *)
  (match (f, decoded) with
  | State.Arithmetic_trap _, _ | _, None -> ()
  | _, Some d -> Decode.undo_side_effects st d);
  Microcode.dispatch_fault st ~start_pc ~next_pc f

(* Physical address of a page-straddling instruction's first byte on its
   second page, when the TLB can resolve it without charging anything
   ([try_translate] is free on a hit and refuses on a miss).  [None]
   leaves the instruction uncacheable, exactly as before. *)
let straddle_pa2 st start_pc (tmpl : Decode_cache.template) pa =
  if Addr.offset pa + tmpl.Decode_cache.t_len > Addr.page_size then begin
    let second_va = Word.add start_pc (Addr.page_size - Addr.offset pa) in
    let pa2 =
      Mmu.try_translate st.State.mmu ~mode:(State.cur_mode st) ~write:false
        second_va
    in
    if pa2 >= 0 then Some pa2 else None
  end
  else None

let step st =
  if st.State.halted then Machine_halted
  else if st.State.stop_requested then Stopped
  else begin
    (match State.highest_pending st with
    | Some (ipl, vector) -> Microcode.take_interrupt st ~ipl ~vector
    | None -> (
        let start_pc = State.pc st in
        let decoded = ref None in
        try
          let d =
            (* consult the decode cache by physical PC; the lookup
               translation reproduces the fault/cycle behaviour of an
               uncached first-byte fetch *)
            let pa = State.code_pa st start_pc in
            match Decode_cache.find st.State.dcache ~mmu:st.State.mmu pa with
            | tmpl -> Decode.operandize st tmpl ~start_pc
            | exception Not_found ->
                let d = Decode.decode st in
                Decode_cache.store st.State.dcache ~mmu:st.State.mmu
                  ?pa2:(straddle_pa2 st start_pc d.Decode.tmpl pa)
                  pa d.Decode.tmpl;
                d
          in
          decoded := Some d;
          run_decoded st d ~start_pc
        with State.Fault f -> fault_finish st !decoded ~start_pc f));
    if st.State.halted then Machine_halted
    else if st.State.stop_requested then Stopped
    else Stepped
  end

let run st ?(max_instructions = max_int) () =
  let rec loop n =
    if n <= 0 then Stepped
    else
      match step st with
      | Stepped -> loop (n - 1)
      | (Machine_halted | Stopped) as s -> s
  in
  loop max_instructions

(* ================================================================== *)
(* Superblock engine                                                   *)
(*                                                                     *)
(* A block slot's closure replays one instruction exactly as [step]     *)
(* would after the decode-cache probe: the same operand-specifier       *)
(* charges ahead of the same fault points, the same eval-time memory    *)
(* reads, the same counter bumps and base-cycle charge, the same fault  *)
(* next-PC protocol.  An instruction whose specifiers all have          *)
(* side-effect-free shapes compiles to a fast slot: operands resolved   *)
(* to readers and destinations, an arity emitter that owns the charge,  *)
(* commit, fault and retire protocol, and a per-opcode kernel.          *)
(* Everything else gets [generic_slot], the body of [step] with the     *)
(* handler pre-resolved.                                                *)
(* ================================================================== *)

(* Fast operands.  A side-effect-free specifier resolves once, at build
   time, to a reader or a destination: plain data that the inlined
   accessors below interpret with a tag test, no closure call.  Reads
   mirror [Decode.mk] — immediates raw, registers masked to the operand
   width, memory through the mode-checked accessors — and writes mirror
   [Decode.write_value], except that a longword register store does not
   re-mask: every value a reader or kernel produces is a word already.
   Fast opcodes have byte and longword data operands only. *)

(* effective address of a memory specifier *)
type ea =
  | At_reg of int  (* (Rn) *)
  | At_disp of int * Word.t  (* disp(Rn) *)
  | At_pc of Word.t  (* PC-relative: the start PC plus a fixed offset *)
  | At of Word.t  (* absolute *)

type reader =
  | Imm of Word.t
  | Rd of int  (* a longword register *)
  | Rd_b of int  (* a register's low byte *)
  | Addr of ea  (* an address operand's effective address *)
  | Ld of ea  (* a longword memory read: the one reader that can fault *)
  | Ld_b of ea

type dest =
  | Nowhere
  | Wr of int
  | Wr_b of int
  | St of ea  (* a memory store: can fault, as can [Push] *)
  | St_b of ea
  | Push

let fast_shape (ts : Decode_cache.tspec) =
  match ts.Decode_cache.t_shape with
  | Decode_cache.Sh_literal _ | Decode_cache.Sh_register _
  | Decode_cache.Sh_reg_deferred _ | Decode_cache.Sh_absolute _
  | Decode_cache.Sh_disp { deferred = false; _ }
  | Decode_cache.Sh_branch _ ->
      true
  | Decode_cache.Sh_autodec _ | Decode_cache.Sh_autoinc _
  | Decode_cache.Sh_autoinc_deferred _
  | Decode_cache.Sh_disp { deferred = true; _ } ->
      false

(* PC-relative forms see the PC just past their own specifier *)
let ea_of (ts : Decode_cache.tspec) =
  let after = ts.Decode_cache.t_after in
  match ts.Decode_cache.t_shape with
  | Decode_cache.Sh_reg_deferred 15 -> At_pc after
  | Decode_cache.Sh_reg_deferred rn -> At_reg rn
  | Decode_cache.Sh_disp { rn = 15; disp; _ } -> At_pc (Word.add disp after)
  | Decode_cache.Sh_disp { rn; disp; _ } -> At_disp (rn, disp)
  | Decode_cache.Sh_absolute va -> At va
  | _ -> invalid_arg "Exec.ea_of: not a fast memory shape"

let reader (ts : Decode_cache.tspec) =
  let byte = ts.Decode_cache.t_width = Opcode.Byte in
  match ts.Decode_cache.t_shape with
  | Decode_cache.Sh_literal v -> Imm v
  | Decode_cache.Sh_register rn -> if byte then Rd_b rn else Rd rn
  | _ when ts.Decode_cache.t_access = Opcode.Address -> Addr (ea_of ts)
  | _ -> if byte then Ld_b (ea_of ts) else Ld (ea_of ts)

let dest (ts : Decode_cache.tspec) =
  let byte = ts.Decode_cache.t_width = Opcode.Byte in
  match ts.Decode_cache.t_shape with
  | Decode_cache.Sh_register rn -> if byte then Wr_b rn else Wr rn
  | _ -> if byte then St_b (ea_of ts) else St (ea_of ts)

let faults = function
  | Ld _ | Ld_b _ -> true
  | Imm _ | Rd _ | Rd_b _ | Addr _ -> false

let[@inline] va_of st pc = function
  | At_reg rn -> Array.unsafe_get st.State.regs rn
  | At_disp (rn, disp) -> Word.add (Array.unsafe_get st.State.regs rn) disp
  | At_pc ofs -> Word.add pc ofs
  | At va -> va

let[@inline] read st pc = function
  | Imm v -> v
  | Rd rn -> Array.unsafe_get st.State.regs rn
  | Rd_b rn -> Array.unsafe_get st.State.regs rn land 0xFF
  | Addr a -> va_of st pc a
  | Ld a -> State.read_long st (State.cur_mode st) (va_of st pc a)
  | Ld_b a -> State.read_byte st (State.cur_mode st) (va_of st pc a)

let[@inline] store st pc dst v =
  match dst with
  | Nowhere -> ()
  | Wr rn -> Array.unsafe_set st.State.regs rn v
  | Wr_b rn ->
      let regs = st.State.regs in
      Array.unsafe_set regs rn
        (Array.unsafe_get regs rn land 0xFFFF_FF00 lor (v land 0xFF))
  | St a -> State.write_long st (State.cur_mode st) (va_of st pc a) v
  | St_b a -> State.write_byte st (State.cur_mode st) (va_of st pc a) (v land 0xFF)
  | Push -> State.push_long st v

(* What an instruction does once its operands are read, as data: one
   match arm per opcode in [compute] or [jump], dispatched on a constant
   constructor rather than through a closure.

   An [Op] computes a value from the (first, second) operand values and
   sets the condition codes before the store, as the handlers do; the
   xxxL2 forms read their destination as the second operand, so each
   xxxL2/xxxL3 pair shares an op.  A [Mov] stores its first operand and
   sets the condition codes after the store, as the move handlers do
   (the order shows when the store faults).  A [Jump] returns the next
   PC and does any store itself. *)
type op =
  | Add
  | Sub
  | Mul
  | Inc
  | Dec
  | Neg
  | Div
  | Bis
  | Bic
  | Xor
  | Cmp
  | Cmp_b
  | Tst
  | Tst_b

type move = Mov_l | Mov_b | Mov_zx
type jump = Fall | Blbs | Blbc | Sob | Aob | Bsb | Jsb | Jmp | Rsb
type kernel = Op of op | Mov of move | Jump of jump

let compute st op a b =
  match op with
  | Add -> do_add st a b
  | Sub -> do_sub st b a
  | Mul -> do_mul st a b
  | Inc -> do_add st a 1
  | Dec -> do_sub st a 1
  | Neg -> do_sub st 0 a
  | Div -> do_div st b a
  | Bis -> do_logic st (Word.logor a b)
  | Bic -> do_logic st (Word.logand b (Word.lognot a))
  | Xor -> do_logic st (Word.logxor a b)
  | Cmp ->
      compare_long st a b;
      0
  | Cmp_b ->
      compare_byte st a b;
      0
  | Tst ->
      set_nzvc st ~n:(Word.to_signed a < 0) ~z:(a = 0) ~v:false ~c:false;
      0
  | Tst_b ->
      let v = a land 0xFF in
      set_nzvc st ~n:(v land 0x80 <> 0) ~z:(v = 0) ~v:false ~c:false;
      0

(* the ops whose handlers end in [check_overflow_trap]; SOBGTR and
   AOBLSS never take it *)
let traps = function
  | Add | Sub | Mul | Inc | Dec | Neg -> true
  | Div | Bis | Bic | Xor | Cmp | Cmp_b | Tst | Tst_b -> false

let move st m v =
  match m with
  | Mov_l -> set_nz_keep_c st v
  | Mov_b -> set_nz_byte_keep_c st v
  | Mov_zx -> set_nzvc st ~n:false ~z:(v = 0) ~v:false ~c:(Psl.c st.State.psl)

(* [dst] is the loop index of SOBGTR and AOBLSS; [tofs] is the branch
   target's offset from the start PC *)
let jump st pc ~len ~tofs dst j a b =
  match j with
  | Fall -> Word.add pc len
  | Blbs -> Word.add pc (if a land 1 = 1 then tofs else len)
  | Blbc -> Word.add pc (if a land 1 = 0 then tofs else len)
  | Sob ->
      let r = do_sub st a 1 in
      store st pc dst r;
      Word.add pc (if Word.to_signed r > 0 then tofs else len)
  | Aob ->
      let r = do_add st b 1 in
      store st pc dst r;
      Word.add pc (if Word.signed_lt r a then tofs else len)
  | Bsb ->
      State.push_long st (Word.add pc len);
      Word.add pc tofs
  | Jsb ->
      State.push_long st (Word.add pc len);
      a
  | Jmp -> a
  | Rsb -> State.pop_long st

(* The fault next-PC protocol of [fault_finish]: a fault while operands
   are being read reports [next_pc = start_pc] (fast shapes have no side
   effects to undo); once evaluation committed — the store, a division
   trap, the overflow trap — it reports the instruction's end.  A fault
   raised by [dispatch_fault] itself propagates, as in [step]. *)
let fault_reading st pc f = Microcode.dispatch_fault st ~start_pc:pc ~next_pc:pc f

let fault_committed st pc len f =
  Microcode.dispatch_fault st ~start_pc:pc ~next_pc:(Word.add pc len) f

(* [State.set_pc] without its mask: every next PC here is a word
   already, and the call is not free (see PERF.md). *)
let[@inline] finish st pc ~enc was_vm next =
  Array.unsafe_set st.State.regs 15 next;
  retire st enc pc was_vm

(* The committed half of a fast instruction: kernel, store, overflow
   trap, PC, retire, with one fault handler over kernel and store. *)
let[@inline] settle st pc ~len ~tofs ~enc was_vm k dst a b =
  match
    match k with
    | Op op ->
        store st pc dst (compute st op a b);
        if traps op then check_overflow_trap st;
        Word.add pc len
    | Mov m ->
        store st pc dst a;
        move st m a;
        Word.add pc len
    | Jump j -> jump st pc ~len ~tofs dst j a b
  with
  | exception State.Fault f -> fault_committed st pc len f
  | next -> finish st pc ~enc was_vm next

(* [settle] fused for the commonest shapes, whose store cannot fault: a
   value kernel into a longword register or nowhere, and a jump that
   neither pushes nor pops.  Only a division needs a handler there, and
   the overflow check is resolved at build time.  [fused_reg] gives the
   register such a kernel writes, -1 for none, or [None] when the store
   can fault. *)
let fused_reg = function
  | Wr rn -> Some rn
  | Nowhere -> Some (-1)
  | Wr_b _ | St _ | St_b _ | Push -> None

let pushes_or_pops = function
  | Bsb | Jsb | Rsb -> true
  | Fall | Blbs | Blbc | Sob | Aob | Jmp -> false

let[@inline] op_into st pc ~len ~enc was_vm op ~ovf rn a b =
  match compute st op a b with
  | exception State.Fault f -> fault_committed st pc len f
  | r ->
      if rn >= 0 then Array.unsafe_set st.State.regs rn r;
      if ovf && Psl.v st.State.psl && Psl.iv st.State.psl then
        fault_committed st pc len (State.Arithmetic_trap 1)
      else finish st pc ~enc was_vm (Word.add pc len)

let[@inline] mov_into st pc ~len ~enc was_vm m rn v =
  Array.unsafe_set st.State.regs rn v;
  move st m v;
  finish st pc ~enc was_vm (Word.add pc len)

(* The arity emitters: the charge-and-commit half for zero, one or two
   operand reads, specialised on which reads can fault and on the fused
   shapes above.  [nspec] counts every specifier, and the reads are the
   first ones.  Each specifier's charge lands before its evaluation, but
   charges with no fault point between them merge into one
   [Cycles.charge]: faults are the only mid-instruction observers of the
   clock (interrupts are sampled at instruction boundaries), and only
   memory reads can fault.  A slot whose reads are all pure therefore
   charges once. *)
let spec = Cost.operand_specifier

let emit0 ~nspec ~len ~tofs ~enc ~base k dst =
  let call = (nspec * spec) + base in
  fun st pc ->
    Cycles.charge st.State.clock call;
    let was_vm = commit st in
    settle st pc ~len ~tofs ~enc was_vm k dst 0 0

let emit1 ~nspec ~len ~tofs ~enc ~base a k dst =
  let call = (nspec * spec) + base and tail = ((nspec - 1) * spec) + base in
  match (faults a, k, fused_reg dst) with
  | false, Op op, Some rn ->
      let ovf = traps op in
      fun st pc ->
        Cycles.charge st.State.clock call;
        let was_vm = commit st in
        op_into st pc ~len ~enc was_vm op ~ovf rn (read st pc a) 0
  | false, Mov m, Some rn when rn >= 0 ->
      fun st pc ->
        Cycles.charge st.State.clock call;
        let was_vm = commit st in
        mov_into st pc ~len ~enc was_vm m rn (read st pc a)
  | false, Jump j, Some _ when not (pushes_or_pops j) ->
      fun st pc ->
        Cycles.charge st.State.clock call;
        let was_vm = commit st in
        finish st pc ~enc was_vm (jump st pc ~len ~tofs dst j (read st pc a) 0)
  | false, _, _ ->
      fun st pc ->
        Cycles.charge st.State.clock call;
        let was_vm = commit st in
        settle st pc ~len ~tofs ~enc was_vm k dst (read st pc a) 0
  | true, Mov m, Some rn when rn >= 0 -> (
      fun st pc ->
        Cycles.charge st.State.clock spec;
        match read st pc a with
        | exception State.Fault f -> fault_reading st pc f
        | v ->
            Cycles.charge st.State.clock tail;
            let was_vm = commit st in
            mov_into st pc ~len ~enc was_vm m rn v)
  | true, _, _ -> (
      fun st pc ->
        Cycles.charge st.State.clock spec;
        match read st pc a with
        | exception State.Fault f -> fault_reading st pc f
        | av ->
            Cycles.charge st.State.clock tail;
            let was_vm = commit st in
            settle st pc ~len ~tofs ~enc was_vm k dst av 0)

let emit2 ~nspec ~len ~tofs ~enc ~base a b k dst =
  let call = (nspec * spec) + base in
  let tail1 = ((nspec - 1) * spec) + base in
  let tail2 = ((nspec - 2) * spec) + base in
  match (faults a, faults b, k, fused_reg dst) with
  | false, false, Op op, Some rn ->
      let ovf = traps op in
      fun st pc ->
        Cycles.charge st.State.clock call;
        let was_vm = commit st in
        op_into st pc ~len ~enc was_vm op ~ovf rn (read st pc a) (read st pc b)
  | false, false, _, _ ->
      fun st pc ->
        Cycles.charge st.State.clock call;
        let was_vm = commit st in
        settle st pc ~len ~tofs ~enc was_vm k dst (read st pc a) (read st pc b)
  | true, false, _, _ -> (
      fun st pc ->
        Cycles.charge st.State.clock spec;
        match read st pc a with
        | exception State.Fault f -> fault_reading st pc f
        | av ->
            Cycles.charge st.State.clock tail1;
            let was_vm = commit st in
            settle st pc ~len ~tofs ~enc was_vm k dst av (read st pc b))
  | false, true, _, _ -> (
      fun st pc ->
        Cycles.charge st.State.clock (2 * spec);
        match read st pc b with
        | exception State.Fault f -> fault_reading st pc f
        | bv ->
            Cycles.charge st.State.clock tail2;
            let was_vm = commit st in
            settle st pc ~len ~tofs ~enc was_vm k dst (read st pc a) bv)
  | true, true, _, _ -> (
      fun st pc ->
        Cycles.charge st.State.clock spec;
        match read st pc a with
        | exception State.Fault f -> fault_reading st pc f
        | av -> (
            Cycles.charge st.State.clock spec;
            match read st pc b with
            | exception State.Fault f -> fault_reading st pc f
            | bv ->
                Cycles.charge st.State.clock tail2;
                let was_vm = commit st in
                settle st pc ~len ~tofs ~enc was_vm k dst av bv))

(* The branch emitter: a conditional branch's one specifier is its
   displacement, and nothing in it can fault. *)
let emit_branch ~len ~enc ~base ~tofs cond =
  let call = spec + base in
  fun st pc ->
    Cycles.charge st.State.clock call;
    let was_vm = commit st in
    finish st pc ~enc was_vm
      (Word.add pc (if cond st.State.psl then tofs else len))

let condition = function
  | Opcode.Brb | Opcode.Brw -> Some (fun _ -> true)
  | Opcode.Bneq -> Some (fun p -> not (Psl.z p))
  | Opcode.Beql -> Some Psl.z
  | Opcode.Bgtr -> Some (fun p -> not (Psl.n p || Psl.z p))
  | Opcode.Bleq -> Some (fun p -> Psl.n p || Psl.z p)
  | Opcode.Bgeq -> Some (fun p -> not (Psl.n p))
  | Opcode.Blss -> Some Psl.n
  | Opcode.Bgtru -> Some (fun p -> not (Psl.c p || Psl.z p))
  | Opcode.Blequ -> Some (fun p -> Psl.c p || Psl.z p)
  | Opcode.Bvc -> Some (fun p -> not (Psl.v p))
  | Opcode.Bvs -> Some Psl.v
  | Opcode.Bcc -> Some (fun p -> not (Psl.c p))
  | Opcode.Bcs -> Some Psl.c
  | _ -> None

let arith = function
  | Opcode.Addl2 | Opcode.Addl3 -> Some Add
  | Opcode.Subl2 | Opcode.Subl3 -> Some Sub
  | Opcode.Mull2 | Opcode.Mull3 -> Some Mul
  | Opcode.Divl2 | Opcode.Divl3 -> Some Div
  | Opcode.Bisl2 | Opcode.Bisl3 -> Some Bis
  | Opcode.Bicl2 | Opcode.Bicl3 -> Some Bic
  | Opcode.Xorl2 | Opcode.Xorl3 -> Some Xor
  | _ -> None

(* The fast compiler: [None] unless every specifier has a fast shape and
   the opcode has a kernel.  Each arm names the data specifiers the
   kernel reads, in order, and the destination. *)
let compile_fast (tmpl : Decode_cache.template) =
  let op = tmpl.Decode_cache.t_opcode in
  let len = tmpl.Decode_cache.t_len in
  let specs = tmpl.Decode_cache.t_specs in
  let nspec = List.length specs in
  let base = Opcode.base_cycles op in
  let enc = enc_int op in
  let data, tofs =
    List.fold_right
      (fun (ts : Decode_cache.tspec) (data, tofs) ->
        match ts.Decode_cache.t_shape with
        | Decode_cache.Sh_branch disp ->
            (data, Word.add disp ts.Decode_cache.t_after)
        | _ -> (ts :: data, tofs))
      specs ([], 0)
  in
  let emit reads k dst =
    Some
      (match List.map reader reads with
      | [] -> emit0 ~nspec ~len ~tofs ~enc ~base k dst
      | [ a ] -> emit1 ~nspec ~len ~tofs ~enc ~base a k dst
      | [ a; b ] -> emit2 ~nspec ~len ~tofs ~enc ~base a b k dst
      | _ -> assert false)
  in
  if not (List.for_all fast_shape specs) then None
  else
    match (op, data, condition op, arith op) with
    | _, [], Some cond, _ -> Some (emit_branch ~len ~enc ~base ~tofs cond)
    | _, [ s; d ], _, Some o -> emit [ s; d ] (Op o) (dest d)
    | _, [ a; b; d ], _, Some o -> emit [ a; b ] (Op o) (dest d)
    | Opcode.Nop, [], _, _ -> emit [] (Jump Fall) Nowhere
    | (Opcode.Movl | Opcode.Moval), [ s; d ], _, _ -> emit [ s ] (Mov Mov_l) (dest d)
    | Opcode.Movb, [ s; d ], _, _ -> emit [ s ] (Mov Mov_b) (dest d)
    | Opcode.Movzbl, [ s; d ], _, _ -> emit [ s ] (Mov Mov_zx) (dest d)
    | Opcode.Clrl, [ d ], _, _ -> emit [] (Mov Mov_l) (dest d)
    | Opcode.Clrb, [ d ], _, _ -> emit [] (Mov Mov_b) (dest d)
    | Opcode.Pushl, [ s ], _, _ -> emit [ s ] (Mov Mov_l) Push
    | Opcode.Tstl, [ s ], _, _ -> emit [ s ] (Op Tst) Nowhere
    | Opcode.Tstb, [ s ], _, _ -> emit [ s ] (Op Tst_b) Nowhere
    | Opcode.Cmpl, [ a; b ], _, _ -> emit [ a; b ] (Op Cmp) Nowhere
    | Opcode.Cmpb, [ a; b ], _, _ -> emit [ a; b ] (Op Cmp_b) Nowhere
    | Opcode.Incl, [ d ], _, _ -> emit [ d ] (Op Inc) (dest d)
    | Opcode.Decl, [ d ], _, _ -> emit [ d ] (Op Dec) (dest d)
    | Opcode.Mnegl, [ s; d ], _, _ -> emit [ s ] (Op Neg) (dest d)
    | Opcode.Blbs, [ s ], _, _ -> emit [ s ] (Jump Blbs) Nowhere
    | Opcode.Blbc, [ s ], _, _ -> emit [ s ] (Jump Blbc) Nowhere
    | Opcode.Sobgtr, [ i ], _, _ -> emit [ i ] (Jump Sob) (dest i)
    | Opcode.Aoblss, [ l; i ], _, _ -> emit [ l; i ] (Jump Aob) (dest i)
    | Opcode.Bsbb, [], _, _ -> emit [] (Jump Bsb) Nowhere
    | Opcode.Jsb, [ d ], _, _ -> emit [ d ] (Jump Jsb) Nowhere
    | Opcode.Jmp, [ d ], _, _ -> emit [ d ] (Jump Jmp) Nowhere
    | Opcode.Rsb, [], _, _ -> emit [] (Jump Rsb) Nowhere
    | _ -> None

(* Generic slot: [Decode.operandize] against the cached template with the
   handler and constants pre-resolved — the body of [step] after its
   decode-cache probe, verbatim. *)
let generic_slot (tmpl : Decode_cache.template) =
  let h = handler_of tmpl.Decode_cache.t_opcode in
  let base = Opcode.base_cycles tmpl.Decode_cache.t_opcode in
  let enc = enc_int tmpl.Decode_cache.t_opcode in
  fun st start_pc ->
    let decoded = ref None in
    try
      let d = Decode.operandize st tmpl ~start_pc in
      decoded := Some d;
      let was_vm = commit st in
      Cycles.charge st.State.clock base;
      let pc_set = h st d ~start_pc in
      if not pc_set then State.set_pc st d.Decode.next_pc;
      retire st enc start_pc was_vm
    with State.Fault f -> fault_finish st !decoded ~start_pc f

let compile_slot tmpl =
  match compile_fast tmpl with Some f -> f | None -> generic_slot tmpl

(* Block enders: everything that sets the PC ends a block (and is its
   last slot). *)
let is_pc_setter = function
  | Opcode.Brb | Opcode.Brw | Opcode.Bneq | Opcode.Beql | Opcode.Bgtr
  | Opcode.Bleq | Opcode.Bgeq | Opcode.Blss | Opcode.Bgtru | Opcode.Blequ
  | Opcode.Bvc | Opcode.Bvs | Opcode.Bcc | Opcode.Bcs | Opcode.Blbs
  | Opcode.Blbc | Opcode.Aoblss | Opcode.Sobgtr | Opcode.Bsbb | Opcode.Jsb
  | Opcode.Jmp | Opcode.Rsb | Opcode.Calls | Opcode.Ret ->
      true
  | _ -> false

(* Sensitive/privileged instructions never enter a block at all: they
   always execute on the cold path, so the VM-emulation and privilege
   machinery sees exactly the per-step environment. *)
let is_block_excluded = function
  | Opcode.Halt | Opcode.Rei | Opcode.Bpt | Opcode.Ldpctx | Opcode.Svpctx
  | Opcode.Wait | Opcode.Chmk | Opcode.Chme | Opcode.Chms | Opcode.Chmu
  | Opcode.Prober | Opcode.Probew | Opcode.Probevmr | Opcode.Probevmw
  | Opcode.Mtpr | Opcode.Mfpr ->
      true
  | _ -> false

let finish_builder st (bc : Block_cache.t) =
  let pa = bc.Block_cache.bld_pa in
  let n = Block_cache.bld_finish bc in
  if n > 0 && Vax_obs.Trace.enabled st.State.trace then
    Vax_obs.Trace.emit st.State.trace Vax_obs.Trace.Block_build ~b:n pa

(* Feed one cold-path instruction to the block builder.  Called before
   the instruction executes: the slot is a compilation of the bytes at
   [pa], valid whatever the instruction then does at run time.  Must not
   raise.

   Page straddlers are never cached: their tail bytes live at a
   translation-dependent physical address, and excluding them is what
   makes blocks pure physical-address objects — a block's slots all sit
   on the page of [b_pa], guarded by that page's store generation alone,
   and the block survives translation changes (every instruction that
   can change translations is itself block-excluded). *)
let feed_builder st (bc : Block_cache.t) pa (tmpl : Decode_cache.template) =
  let open Block_cache in
  let phys = Mmu.phys st.State.mmu in
  (* a control-flow discontinuity ends the pending prefix (it is still a
     valid block of what it covers) *)
  if bld_active bc && bc.bld_next_pa <> pa then finish_builder st bc;
  let len = tmpl.Decode_cache.t_len in
  let op = tmpl.Decode_cache.t_opcode in
  if
    len = 0
    || (not (Phys_mem.in_ram phys pa))
    || is_block_excluded op
    || Addr.offset pa + len > Addr.page_size
  then finish_builder st bc
  else begin
    if not (bld_active bc) then bld_begin bc ~pa;
    bld_append bc
      {
        s_pa = pa;
        s_len = len;
        s_gen1 = Phys_mem.page_gen phys (pa lsr Addr.page_shift);
        s_exec = compile_slot tmpl;
      };
    if is_pc_setter op || Addr.offset pa + len >= Addr.page_size || bld_full bc
    then finish_builder st bc
  end

(* Cold path: the per-step decode pipeline, plus feeding the builder. *)
let step_cold st (bc : Block_cache.t) pa start_pc =
  bc.Block_cache.misses <- bc.Block_cache.misses + 1;
  bc.Block_cache.cur_pa <- -1;
  bc.Block_cache.cur_va <- -1;
  let decoded = ref None in
  try
    let d =
      match Decode_cache.find st.State.dcache ~mmu:st.State.mmu pa with
      | tmpl ->
          feed_builder st bc pa tmpl;
          Decode.operandize st tmpl ~start_pc
      | exception Not_found ->
          let d = Decode.decode st in
          Decode_cache.store st.State.dcache ~mmu:st.State.mmu
            ?pa2:(straddle_pa2 st start_pc d.Decode.tmpl pa)
            pa d.Decode.tmpl;
          feed_builder st bc pa d.Decode.tmpl;
          d
    in
    decoded := Some d;
    run_decoded st d ~start_pc
  with State.Fault f -> fault_finish st !decoded ~start_pc f

(* Execute the slot at the cursor and advance the cursor (before the
   slot runs: a fault or branch simply makes the prediction miss).  The
   advance also arms the fetch memo: the caller just translated
   [start_pc] successfully, so as long as the TB and the mode do not
   change, translating the fall-through PC (same page — blocks never
   cross a page) must yield the next slot's [s_pa].  Recording happens
   before [s_exec] runs, so the memoed mode is exactly the fetch's mode,
   and any TB fill the body performs bumps the generation and disarms
   the memo. *)
let exec_slot st (bc : Block_cache.t) (b : Block_cache.block) ix start_pc =
  let open Block_cache in
  bc.hits <- bc.hits + 1;
  let s = Array.unsafe_get b.b_slots ix in
  let nix = ix + 1 in
  if nix < Array.length b.b_slots then begin
    let mmu = st.State.mmu in
    bc.cur_block <- b;
    bc.cur_ix <- nix;
    bc.cur_pa <- (Array.unsafe_get b.b_slots nix).s_pa;
    bc.cur_va <- start_pc + s.s_len;
    bc.cur_fgen <- Tlb.mutation_generation (Mmu.tlb mmu);
    bc.cur_fmode <- State.cur_mode st;
    bc.cur_fhit <- Mmu.mapen mmu
  end
  else begin
    bc.cur_pa <- -1;
    bc.cur_va <- -1;
    bc.last <- b
  end;
  s.s_exec st start_pc

(* Entry at a block head: try the chain links of the block we just left,
   then the table; install/refresh the chain link on a table hit. *)
let enter_block st (bc : Block_cache.t) pa start_pc =
  let open Block_cache in
  let phys = Mmu.phys st.State.mmu in
  let valid b =
    b != empty_block && b.b_pa = pa
    && slot_valid phys (Array.unsafe_get b.b_slots 0)
  in
  let last = bc.last in
  bc.last <- empty_block;
  let b =
    if last != empty_block then begin
      let c1 = last.b_chain1 in
      if valid c1 then begin
        bc.chains <- bc.chains + 1;
        c1
      end
      else begin
        let c2 = last.b_chain2 in
        if valid c2 then begin
          (* promote the second-chance link *)
          last.b_chain2 <- c1;
          last.b_chain1 <- c2;
          bc.chains <- bc.chains + 1;
          c2
        end
        else empty_block
      end
    end
    else empty_block
  in
  let b =
    if b != empty_block then b
    else begin
      let t = lookup bc pa in
      if valid t then begin
        if last != empty_block && last.b_chain1 != t then begin
          last.b_chain2 <- last.b_chain1;
          last.b_chain1 <- t
        end;
        t
      end
      else begin
        if t != empty_block then invalidate bc t;
        empty_block
      end
    end
  in
  if b != empty_block then exec_slot st bc b 0 start_pc
  else step_cold st bc pa start_pc

(* One architectural step under the block engine.  The machine loop keeps
   calling this once per instruction, so device scheduling, interrupt
   sampling, and halt/stop checks all happen at exactly the same
   instruction boundaries as with [step] — simulated time and interrupt
   latency are bit-identical; only host wall-clock changes. *)
let step_blocks st (bc : Block_cache.t) =
  if st.State.halted then Machine_halted
  else if st.State.stop_requested then Stopped
  else begin
    (match State.highest_pending st with
    | Some (ipl, vector) ->
        (* prediction and pending chain link die across the delivery *)
        bc.Block_cache.cur_pa <- -1;
        bc.Block_cache.cur_va <- -1;
        bc.Block_cache.last <- Block_cache.empty_block;
        Microcode.take_interrupt st ~ipl ~vector
    | None ->
        let start_pc = State.pc st in
        let mmu = st.State.mmu in
        if
          bc.Block_cache.cur_va = start_pc
          && bc.Block_cache.cur_fgen = Tlb.mutation_generation (Mmu.tlb mmu)
          && bc.Block_cache.cur_fmode == State.cur_mode st
        then begin
          (* fetch memo hit: the TB has had no fill or invalidation and
             the mode is unchanged since the previous slot's fetch on
             this same page, so translating [start_pc] would
             deterministically repeat that outcome — the predicted
             [cur_pa] (= the slot's [s_pa]) IS the translation.  The TB
             lookup is skipped but its hit is still counted ([cur_fhit])
             so TB statistics stay identical to the per-step loop. *)
          let open Block_cache in
          let b = bc.cur_block in
          let ix = bc.cur_ix in
          let s = Array.unsafe_get b.b_slots ix in
          let phys = Mmu.phys mmu in
          if s.s_gen1 = Phys_mem.page_gen phys (s.s_pa lsr Addr.page_shift)
          then begin
            if bc.cur_fhit then begin
              Tlb.count_hit (Mmu.tlb mmu);
              if Cost.tlb_hit <> 0 then
                Cycles.charge st.State.clock Cost.tlb_hit
            end;
            bc.hits <- bc.hits + 1;
            let nix = ix + 1 in
            if nix < Array.length b.b_slots then begin
              bc.cur_ix <- nix;
              bc.cur_pa <- (Array.unsafe_get b.b_slots nix).s_pa;
              bc.cur_va <- start_pc + s.s_len
              (* cur_fgen/cur_fmode/cur_fhit still hold: nothing between
                 the memo check and here can change them *)
            end
            else begin
              bc.cur_pa <- -1;
              bc.cur_va <- -1;
              bc.last <- b
            end;
            s.s_exec st start_pc
          end
          else begin
            (* block went stale under a live memo (stored-to page):
               re-fetch for real, then take the cold path *)
            Block_cache.invalidate bc b;
            match State.code_pa st start_pc with
            | exception State.Fault f ->
                Microcode.dispatch_fault st ~start_pc ~next_pc:start_pc f
            | pa -> step_cold st bc pa start_pc
          end
        end
        else begin
          match State.code_pa st start_pc with
          | exception State.Fault f ->
              bc.Block_cache.cur_pa <- -1;
              bc.Block_cache.cur_va <- -1;
              Microcode.dispatch_fault st ~start_pc ~next_pc:start_pc f
          | pa ->
              if bc.Block_cache.cur_pa = pa then begin
                (* cursor hit on a cold memo (TB or mode changed since
                   the advance): [exec_slot] re-arms the memo with the
                   fresh generation *)
                let open Block_cache in
                let b = bc.cur_block in
                let ix = bc.cur_ix in
                if slot_valid (Mmu.phys mmu) (Array.unsafe_get b.b_slots ix)
                then exec_slot st bc b ix start_pc
                else begin
                  Block_cache.invalidate bc b;
                  step_cold st bc pa start_pc
                end
              end
              else enter_block st bc pa start_pc
        end);
    if st.State.halted then Machine_halted
    else if st.State.stop_requested then Stopped
    else Stepped
  end

let run_blocks st bc ?(max_instructions = max_int) () =
  let rec loop n =
    if n <= 0 then Stepped
    else
      match step_blocks st bc with
      | Stepped -> loop (n - 1)
      | (Machine_halted | Stopped) as s -> s
  in
  loop max_instructions

(* Which execution engine a machine uses; [Blocks] is the default
   everywhere, [Stepper] is the reference interpreter. *)
type engine = Stepper | Blocks
