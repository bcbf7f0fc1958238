type fact = Undef | Const of int64 | Nac

let meet a b =
  match (a, b) with
  | Undef, x | x, Undef -> x
  | Const va, Const vb -> if Int64.equal va vb then a else Nac
  | Nac, _ | _, Nac -> Nac

let entry_env bindings =
  let env = Array.make Isa.num_regs Nac in
  env.(Isa.zero_reg) <- Const 0L;
  List.iter
    (fun (r, v) ->
      if r = Isa.zero_reg then invalid_arg "Constfold: cannot bind the zero register";
      env.(r) <- Const v)
    bindings;
  env

(* Pure evaluation mirroring the machine's ALU arms; None where the machine
   would trap, so folding never hides a run-time trap. *)
let eval op a b =
  match op with
  | Isa.Add -> Some (Int64.add a b)
  | Isa.Sub -> Some (Int64.sub a b)
  | Isa.Mul -> Some (Int64.mul a b)
  | Isa.Div -> if Int64.equal b 0L then None else Some (Int64.div a b)
  | Isa.Rem -> if Int64.equal b 0L then None else Some (Int64.rem a b)
  | Isa.And -> Some (Int64.logand a b)
  | Isa.Or -> Some (Int64.logor a b)
  | Isa.Xor -> Some (Int64.logxor a b)
  | Isa.Sll -> Some (Int64.shift_left a (Int64.to_int b land 63))
  | Isa.Srl -> Some (Int64.shift_right_logical a (Int64.to_int b land 63))
  | Isa.Sra -> Some (Int64.shift_right a (Int64.to_int b land 63))
  | Isa.Cmpeq -> Some (if Int64.equal a b then 1L else 0L)
  | Isa.Cmplt -> Some (if Int64.compare a b < 0 then 1L else 0L)
  | Isa.Cmple -> Some (if Int64.compare a b <= 0 then 1L else 0L)
  | Isa.Cmpult -> Some (if Int64.unsigned_compare a b < 0 then 1L else 0L)

let cond_holds c v =
  let s = Int64.compare v 0L in
  match c with
  | Isa.Eq -> s = 0
  | Isa.Ne -> s <> 0
  | Isa.Lt -> s < 0
  | Isa.Le -> s <= 0
  | Isa.Gt -> s > 0
  | Isa.Ge -> s >= 0

let read env r = if r = Isa.zero_reg then Const 0L else env.(r)

let read_operand env = function
  | Isa.Reg r -> read env r
  | Isa.Imm v -> Const v

(* Register facts after executing instruction [i] from in-state [env]. *)
let transfer body i env =
  let env' = Array.copy env in
  (match Body.defines body.(i) with
   | Some rd ->
     let v =
       match body.(i) with
       | Body.BOp (op, ra, ob, _) ->
         (match (read env ra, read_operand env ob) with
          | Const a, Const b -> (match eval op a b with Some v -> Const v | None -> Nac)
          | Undef, _ | _, Undef -> Undef
          | _ -> Nac)
       | Body.BLdi (_, v) -> Const v
       | Body.BLd _ -> Nac
       | _ -> Nac
     in
     env'.(rd) <- v
   | None -> ());
  if Body.is_call body.(i) then
    for r = 0 to Isa.num_regs - 1 do
      if not (Body.callee_saved r) then env'.(r) <- Nac
    done;
  env'.(Isa.zero_reg) <- Const 0L;
  env'

(* Successors actually reachable given the in-state: a branch on a constant
   register realizes only one edge. *)
let realized_successors body i env =
  match body.(i) with
  | Body.BBr (c, r, Body.Local t) ->
    (match read env r with
     | Const v ->
       if cond_holds c v then [ t ]
       else if i + 1 < Array.length body then [ i + 1 ]
       else []
     | Undef | Nac -> Body.successors body i)
  | _ -> Body.successors body i

let analyze body ~entry =
  let n = Array.length body in
  let facts : fact array option array = Array.make n None in
  if n = 0 then facts
  else begin
    facts.(0) <- Some (Array.copy entry);
    let work = Queue.create () in
    Queue.add 0 work;
    while not (Queue.is_empty work) do
      let i = Queue.pop work in
      match facts.(i) with
      | None -> ()
      | Some env ->
        let out = transfer body i env in
        List.iter
          (fun s ->
            let merged =
              match facts.(s) with
              | None -> Array.copy out
              | Some cur -> Array.init Isa.num_regs (fun r -> meet cur.(r) out.(r))
            in
            let changed =
              match facts.(s) with
              | None -> true
              | Some cur -> merged <> cur
            in
            if changed then begin
              facts.(s) <- Some merged;
              Queue.add s work
            end)
          (realized_successors body i env)
    done;
    facts
  end

type stats = { folded : int; branches_resolved : int; unreachable : int }

let fold body ~entry =
  let facts = analyze body ~entry in
  let folded = ref 0 and resolved = ref 0 and unreachable = ref 0 in
  let out =
    Array.mapi
      (fun i instr ->
        match facts.(i) with
        | None ->
          incr unreachable;
          Body.BNop
        | Some env ->
          (match instr with
           | Body.BOp (op, ra, ob, rc) when rc <> Isa.zero_reg ->
             (match (read env ra, read_operand env ob) with
              | Const a, Const b ->
                (match eval op a b with
                 | Some v ->
                   incr folded;
                   Body.BLdi (rc, v)
                 | None -> instr)
              | _ -> instr)
           | Body.BBr (c, r, (Body.Local _ as t)) ->
             (match read env r with
              | Const v ->
                incr resolved;
                if cond_holds c v then Body.BJmp t else Body.BNop
              | Undef | Nac -> instr)
           | _ -> instr))
      body
  in
  (out, { folded = !folded; branches_resolved = !resolved; unreachable = !unreachable })
