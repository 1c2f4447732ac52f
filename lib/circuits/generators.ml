open Dagmap_logic

(* Common subexpressions used by the arithmetic generators. Variables
   index the fanin array passed alongside. *)
let v = Bexpr.var
let full_sum = Bexpr.(xor2 (xor2 (v 0) (v 1)) (v 2))
let full_carry = Bexpr.(or2 (and2 (v 0) (v 1)) (and2 (v 2) (xor2 (v 0) (v 1))))
let half_sum = Bexpr.(xor2 (v 0) (v 1))
let half_carry = Bexpr.(and2 (v 0) (v 1))

let add_full_adder net a b c =
  let s = Network.add_logic net full_sum [| a; b; c |] in
  let co = Network.add_logic net full_carry [| a; b; c |] in
  (s, co)

let add_half_adder net a b =
  let s = Network.add_logic net half_sum [| a; b |] in
  let co = Network.add_logic net half_carry [| a; b |] in
  (s, co)

let declare_vector net prefix n =
  Array.init n (fun i -> Network.add_pi net (Printf.sprintf "%s%d" prefix i))

let ripple_adder n =
  let net = Network.create ~name:(Printf.sprintf "radd%d" n) () in
  let a = declare_vector net "a" n in
  let b = declare_vector net "b" n in
  let cin = Network.add_pi net "cin" in
  let carry = ref cin in
  for i = 0 to n - 1 do
    let s, co = add_full_adder net a.(i) b.(i) !carry in
    Network.add_po net (Printf.sprintf "s%d" i) s;
    carry := co
  done;
  Network.add_po net "cout" !carry;
  net

(* 4-bit carry-lookahead blocks chained at the block level. *)
let carry_lookahead_adder n =
  let net = Network.create ~name:(Printf.sprintf "cla%d" n) () in
  let a = declare_vector net "a" n in
  let b = declare_vector net "b" n in
  let cin = Network.add_pi net "cin" in
  let g = Array.map2 (fun x y -> Network.add_logic net half_carry [| x; y |]) a b in
  let p = Array.map2 (fun x y -> Network.add_logic net half_sum [| x; y |]) a b in
  let carry = Array.make (n + 1) cin in
  let block_start = ref 0 in
  while !block_start < n do
    let block_end = min (!block_start + 4) n in
    (* Within the block: c(i+1) = g(i) + p(i)g(i-1) + ... + p..p c0. *)
    for i = !block_start to block_end - 1 do
      let terms = ref [] in
      for j = !block_start to i do
        (* term j: g(j) * prod_{k=j+1..i} p(k); as fanin list *)
        let fanins = ref [ g.(j) ] in
        for k = j + 1 to i do
          fanins := p.(k) :: !fanins
        done;
        terms := Array.of_list (List.rev !fanins) :: !terms
      done;
      (* carry-in propagated through the whole block prefix *)
      let fanins = ref [ carry.(!block_start) ] in
      for k = !block_start to i do
        fanins := p.(k) :: !fanins
      done;
      terms := Array.of_list (List.rev !fanins) :: !terms;
      let term_nodes =
        List.map
          (fun fanins ->
            let expr =
              Bexpr.and_list (List.init (Array.length fanins) Bexpr.var)
            in
            Network.add_logic net expr fanins)
          !terms
      in
      let fanins = Array.of_list term_nodes in
      let expr = Bexpr.or_list (List.init (Array.length fanins) Bexpr.var) in
      carry.(i + 1) <- Network.add_logic net expr fanins
    done;
    block_start := block_end
  done;
  for i = 0 to n - 1 do
    let s = Network.add_logic net half_sum [| p.(i); carry.(i) |] in
    Network.add_po net (Printf.sprintf "s%d" i) s
  done;
  Network.add_po net "cout" carry.(n);
  net

let carry_select_adder n =
  let net = Network.create ~name:(Printf.sprintf "csel%d" n) () in
  let a = declare_vector net "a" n in
  let b = declare_vector net "b" n in
  let cin = Network.add_pi net "cin" in
  let mux s x y =
    (* s ? x : y *)
    Network.add_logic net
      Bexpr.(or2 (and2 (v 0) (v 1)) (and2 (not_ (v 0)) (v 2)))
      [| s; x; y |]
  in
  let carry = ref cin in
  let block_start = ref 0 in
  while !block_start < n do
    let block_end = min (!block_start + 4) n in
    (* Two speculative ripple chains, carry-in 0 and 1. *)
    let run fixed_cin =
      let c = ref fixed_cin in
      let sums = ref [] in
      for i = !block_start to block_end - 1 do
        match !c with
        | None ->
          (* constant carry-in for the first stage *)
          let s, co = add_half_adder net a.(i) b.(i) in
          sums := s :: !sums;
          c := Some co
        | Some cn ->
          let s, co = add_full_adder net a.(i) b.(i) cn in
          sums := s :: !sums;
          c := Some co
      done;
      (List.rev !sums, Option.get !c)
    in
    let sums0, cout0 = run None in
    (* carry-in = 1 chain: first stage is a full adder with const 1:
       s = !(a^b)^... — model with explicit logic. *)
    let one_first i =
      let s =
        Network.add_logic net Bexpr.(not_ (xor2 (v 0) (v 1))) [| a.(i); b.(i) |]
      in
      let co = Network.add_logic net Bexpr.(or2 (v 0) (v 1)) [| a.(i); b.(i) |] in
      (s, co)
    in
    let sums1, cout1 =
      let s0, c0 = one_first !block_start in
      let c = ref c0 in
      let sums = ref [ s0 ] in
      for i = !block_start + 1 to block_end - 1 do
        let s, co = add_full_adder net a.(i) b.(i) !c in
        sums := s :: !sums;
        c := !c
        ;
        c := co
      done;
      (List.rev !sums, !c)
    in
    List.iteri
      (fun k (s0, s1) ->
        let s = mux !carry s1 s0 in
        Network.add_po net (Printf.sprintf "s%d" (!block_start + k)) s)
      (List.combine sums0 sums1);
    carry := mux !carry cout1 cout0;
    block_start := block_end
  done;
  Network.add_po net "cout" !carry;
  net

let array_multiplier n =
  let net = Network.create ~name:(Printf.sprintf "mult%d" n) () in
  let a = declare_vector net "a" n in
  let b = declare_vector net "b" n in
  let pp i j =
    Network.add_logic net Bexpr.(and2 (v 0) (v 1)) [| a.(i); b.(j) |]
  in
  (* Carry-save reduction, row by row: row j adds partial products
     a(i)*b(j) into a running (sum, carry) vector. *)
  let sums = Array.init n (fun i -> pp i 0) in
  let sums = ref (Array.to_list sums) in        (* weight i for bit i *)
  let product = ref [] in
  let carries = ref [] in
  for j = 1 to n - 1 do
    (* peel off the lowest sum bit as product bit j-1 *)
    (match !sums with
     | low :: rest ->
       product := low :: !product;
       sums := rest
     | [] -> assert false);
    let row = List.init n (fun i -> pp i j) in
    let prev = Array.of_list !sums in
    let prev_carries = Array.of_list !carries in
    let new_sums = ref [] and new_carries = ref [] in
    List.iteri
      (fun i ppij ->
        let s_in = if i < Array.length prev then Some prev.(i) else None in
        let c_in =
          if i < Array.length prev_carries then Some prev_carries.(i) else None
        in
        match s_in, c_in with
        | Some s, Some c ->
          let s', c' = add_full_adder net ppij s c in
          new_sums := s' :: !new_sums;
          new_carries := c' :: !new_carries
        | Some s, None | None, Some s ->
          let s', c' = add_half_adder net ppij s in
          new_sums := s' :: !new_sums;
          new_carries := c' :: !new_carries
        | None, None ->
          new_sums := ppij :: !new_sums)
      row;
    sums := List.rev !new_sums;
    carries := List.rev !new_carries
  done;
  (* Final carry-propagate stage over remaining sums and carries. *)
  (match !sums with
   | low :: rest ->
     product := low :: !product;
     sums := rest
   | [] -> assert false);
  let final_sums = Array.of_list !sums in
  let final_carries = Array.of_list !carries in
  let carry = ref None in
  for i = 0 to Array.length final_sums - 1 do
    let s = final_sums.(i) in
    let c = if i < Array.length final_carries then Some final_carries.(i) else None in
    let bit, next =
      match c, !carry with
      | None, None -> (s, None)
      | Some x, None | None, Some x ->
        let s', c' = add_half_adder net s x in
        (s', Some c')
      | Some x, Some y ->
        let s', c' = add_full_adder net s x y in
        (s', Some c')
    in
    product := bit :: !product;
    carry := next
  done;
  (match !carry with
   | Some c -> product := c :: !product
   | None ->
     (* width bookkeeping: pad with constant zero product bit *)
     let zero = Network.add_logic net (Bexpr.const false) [||] in
     product := zero :: !product);
  let bits = List.rev !product in
  List.iteri (fun i bit -> Network.add_po net (Printf.sprintf "p%d" i) bit) bits;
  net

let parity n =
  let net = Network.create ~name:(Printf.sprintf "parity%d" n) () in
  let xs = declare_vector net "x" n in
  let rec reduce = function
    | [] -> invalid_arg "parity"
    | [ x ] -> x
    | xs ->
      let rec pair = function
        | [] -> []
        | [ x ] -> [ x ]
        | x :: y :: rest ->
          Network.add_logic net Bexpr.(xor2 (v 0) (v 1)) [| x; y |] :: pair rest
      in
      reduce (pair xs)
  in
  Network.add_po net "par" (reduce (Array.to_list xs));
  net

let mux_tree k =
  let net = Network.create ~name:(Printf.sprintf "mux%d" k) () in
  let data = declare_vector net "d" (1 lsl k) in
  let sel = declare_vector net "s" k in
  let rec build level signals =
    match signals with
    | [ x ] -> x
    | signals ->
      let s = sel.(level) in
      let rec pair = function
        | [] -> []
        | [ x ] -> [ x ]
        | x :: y :: rest ->
          Network.add_logic net
            Bexpr.(or2 (and2 (not_ (v 0)) (v 1)) (and2 (v 0) (v 2)))
            [| s; x; y |]
          :: pair rest
      in
      build (level + 1) (pair signals)
  in
  Network.add_po net "out" (build 0 (Array.to_list data));
  net

let decoder k =
  let net = Network.create ~name:(Printf.sprintf "dec%d" k) () in
  let xs = declare_vector net "x" k in
  for m = 0 to (1 lsl k) - 1 do
    let expr =
      Bexpr.and_list
        (List.init k (fun i ->
             if m land (1 lsl i) <> 0 then v i else Bexpr.not_ (v i)))
    in
    let node = Network.add_logic net expr xs in
    Network.add_po net (Printf.sprintf "y%d" m) node
  done;
  net

let comparator n =
  let net = Network.create ~name:(Printf.sprintf "cmp%d" n) () in
  let a = declare_vector net "a" n in
  let b = declare_vector net "b" n in
  (* eq and lt by MSB-first recursion:
     eq_i over bits [i..n-1]; lt similarly. *)
  let eq = ref None and lt = ref None in
  for i = n - 1 downto 0 do
    let bit_eq =
      Network.add_logic net Bexpr.(not_ (xor2 (v 0) (v 1))) [| a.(i); b.(i) |]
    in
    let bit_lt =
      Network.add_logic net Bexpr.(and2 (not_ (v 0)) (v 1)) [| a.(i); b.(i) |]
    in
    (match !eq, !lt with
     | None, None ->
       eq := Some bit_eq;
       lt := Some bit_lt
     | Some e, Some l ->
       let lt' =
         Network.add_logic net
           Bexpr.(or2 (v 0) (and2 (v 1) (v 2)))
           [| l; e; bit_lt |]
       in
       let eq' = Network.add_logic net Bexpr.(and2 (v 0) (v 1)) [| e; bit_eq |] in
       eq := Some eq';
       lt := Some lt'
     | _ -> assert false)
  done;
  Network.add_po net "eq" (Option.get !eq);
  Network.add_po net "lt" (Option.get !lt);
  net

let alu n =
  let net = Network.create ~name:(Printf.sprintf "alu%d" n) () in
  let a = declare_vector net "a" n in
  let b = declare_vector net "b" n in
  let op0 = Network.add_pi net "op0" in
  let op1 = Network.add_pi net "op1" in
  let carry = ref None in
  for i = 0 to n - 1 do
    let sum, co =
      match !carry with
      | None -> add_half_adder net a.(i) b.(i)
      | Some c -> add_full_adder net a.(i) b.(i) c
    in
    carry := Some co;
    let and_n = Network.add_logic net Bexpr.(and2 (v 0) (v 1)) [| a.(i); b.(i) |] in
    let or_n = Network.add_logic net Bexpr.(or2 (v 0) (v 1)) [| a.(i); b.(i) |] in
    let xor_n = Network.add_logic net Bexpr.(xor2 (v 0) (v 1)) [| a.(i); b.(i) |] in
    (* 4:1 mux on (op1 op0): 00 sum, 01 and, 10 or, 11 xor *)
    let r =
      Network.add_logic net
        Bexpr.(
          or_list
            [ and_list [ not_ (v 0); not_ (v 1); v 2 ];
              and_list [ not_ (v 0); v 1; v 3 ];
              and_list [ v 0; not_ (v 1); v 4 ];
              and_list [ v 0; v 1; v 5 ] ])
        [| op1; op0; sum; and_n; or_n; xor_n |]
    in
    Network.add_po net (Printf.sprintf "r%d" i) r
  done;
  Network.add_po net "cout" (Option.get !carry);
  net

(* ------------------------------------------------------------------ *)
(* Random reconvergent logic                                           *)
(* ------------------------------------------------------------------ *)

let random_function st arity =
  match arity, Random.State.int st 8 with
  | 2, 0 -> Bexpr.(and2 (v 0) (v 1))
  | 2, 1 -> Bexpr.(or2 (v 0) (v 1))
  | 2, 2 -> Bexpr.(not_ (and2 (v 0) (v 1)))
  | 2, 3 -> Bexpr.(not_ (or2 (v 0) (v 1)))
  | 2, 4 | 2, 5 -> Bexpr.(xor2 (v 0) (v 1))
  | 2, _ -> Bexpr.(and2 (not_ (v 0)) (v 1))
  | 3, 0 -> Bexpr.(or2 (and2 (v 0) (v 1)) (v 2))                  (* ao21 *)
  | 3, 1 -> Bexpr.(not_ (or2 (and2 (v 0) (v 1)) (v 2)))          (* aoi21 *)
  | 3, 2 -> Bexpr.(and2 (or2 (v 0) (v 1)) (v 2))                 (* oa21 *)
  | 3, 3 -> Bexpr.(or2 (and2 (v 0) (v 1)) (and2 (v 1) (v 2)))    (* partial maj *)
  | 3, 4 -> full_sum
  | 3, 5 -> full_carry
  | 3, 6 -> Bexpr.(or2 (and2 (v 0) (v 1)) (and2 (not_ (v 0)) (v 2))) (* mux *)
  | 3, _ -> Bexpr.(and_list [ v 0; v 1; v 2 ])
  | 4, 0 -> Bexpr.(or2 (and2 (v 0) (v 1)) (and2 (v 2) (v 3)))    (* ao22 *)
  | 4, 1 -> Bexpr.(not_ (or2 (and2 (v 0) (v 1)) (and2 (v 2) (v 3)))) (* aoi22 *)
  | 4, 2 -> Bexpr.(and2 (or2 (v 0) (v 1)) (or2 (v 2) (v 3)))
  | 4, 3 -> Bexpr.(and_list [ v 0; v 1; v 2; v 3 ])
  | 4, 4 -> Bexpr.(or_list [ v 0; v 1; v 2; v 3 ])
  | 4, 5 -> Bexpr.(not_ (and_list [ v 0; v 1; v 2; v 3 ]))
  | 4, 6 -> Bexpr.(xor2 (xor2 (v 0) (v 1)) (xor2 (v 2) (v 3)))
  | 4, _ -> Bexpr.(or2 (xor2 (v 0) (v 1)) (and2 (v 2) (v 3)))
  | _ -> invalid_arg "random_function"

let random_dag ?(seed = 1) ?(inputs = 32) ?(outputs = 16) ~nodes () =
  let st = Random.State.make [| seed; nodes; inputs |] in
  let net = Network.create ~name:(Printf.sprintf "rand%d_%d" seed nodes) () in
  let pis = declare_vector net "x" inputs in
  let pool = ref (Array.to_list pis) in
  let pool_arr = ref pis in
  let created = ref [] in
  for _ = 1 to nodes do
    let arr = !pool_arr in
    let len = Array.length arr in
    let arity = 2 + Random.State.int st 3 in
    (* Recency bias: half the fanins from the most recent quarter. *)
    let pick () =
      if Random.State.bool st && len > 8 then
        arr.(len - 1 - Random.State.int st (len / 4))
      else arr.(Random.State.int st len)
    in
    let rec distinct_fanins acc k guard =
      if k = 0 || guard > 20 then acc
      else
        let f = pick () in
        if List.mem f acc then distinct_fanins acc k (guard + 1)
        else distinct_fanins (f :: acc) (k - 1) guard
    in
    let fanins = distinct_fanins [] arity 0 in
    let arity = List.length fanins in
    if arity >= 2 then begin
      let expr = random_function st arity in
      let id = Network.add_logic net expr (Array.of_list fanins) in
      created := id :: !created;
      pool := id :: !pool;
      pool_arr := Array.of_list !pool
    end
  done;
  (* Outputs: the most recent signals plus random picks, unique. *)
  let chosen = Hashtbl.create 16 in
  let emit id =
    if not (Hashtbl.mem chosen id) then begin
      Hashtbl.replace chosen id ();
      Network.add_po net (Printf.sprintf "o%d" (Hashtbl.length chosen)) id
    end
  in
  let created_arr = Array.of_list !created in
  let n_created = Array.length created_arr in
  let rec fill k guard =
    if k > 0 && guard < 10 * outputs then begin
      let id =
        if k mod 2 = 0 then created_arr.(Random.State.int st n_created)
        else created_arr.(Random.State.int st (max 1 (n_created / 4)))
      in
      let before = Hashtbl.length chosen in
      emit id;
      fill (if Hashtbl.length chosen > before then k - 1 else k) (guard + 1)
    end
  in
  if n_created > 0 then fill (min outputs n_created) 0;
  net

let nand_chain n =
  (* NAND (not NOT) links: an inverter chain would collapse under the
     subject builder's inverter-pair cancellation, while NAND(prev, x)
     nodes are all structurally distinct — network depth survives into
     the subject graph, which is what the stack-safety tests need. *)
  let net = Network.create ~name:(Printf.sprintf "chain%d" n) () in
  let x = Network.add_pi net "x" in
  let prev = ref x in
  for _ = 1 to n do
    prev := Network.add_logic net Bexpr.(not_ (and2 (v 0) (v 1))) [| !prev; x |]
  done;
  Network.add_po net "o" !prev;
  net

(* ------------------------------------------------------------------ *)
(* Huge-tier synthetic SoC                                             *)
(* ------------------------------------------------------------------ *)

(* A single connected flat netlist shaped like an SoC datapath region:
   ranks of heterogeneous blocks (adder/multiplier slices, muxes,
   decoders, comparators, parity trees, random glue) whose inputs come
   from the previous rank with occasional PI and long skip
   connections. Rank-local wiring keeps depth O(ranks) no matter how
   many nodes are requested, so million-node instances stay mappable
   and parallelizable; blocks repeat their local shapes, like real
   SoCs do. Exactly [nodes] logic nodes
   are created (glue blocks absorb each rank's remainder), and
   everything is driven by Random.State, so a seed fully determines
   the circuit — the test suite asserts byte-identical BLIF. *)

let soc_ranks nodes = max 1 (min 24 (nodes / 48))

let synthetic_soc ?(seed = 1) ~nodes () =
  if nodes < 1 then invalid_arg "Generators.synthetic_soc";
  let st = Random.State.make [| 0x50C; seed; nodes |] in
  let net = Network.create ~name:(Printf.sprintf "soc%d_%d" seed nodes) () in
  let n_pis = min 512 (max 16 (nodes / 2048)) in
  let pis = declare_vector net "x" n_pis in
  let ranks = soc_ranks nodes in
  let prev_rank = ref pis in
  (* Reservoir of older signals for skip connections. *)
  let older = ref pis in
  let pick () =
    let from arr = arr.(Random.State.int st (Array.length arr)) in
    let r = Random.State.int st 100 in
    if r < 80 then from !prev_rank
    else if r < 92 then from pis
    else from !older
  in
  let logic_nodes () = Network.num_nodes net - n_pis in
  (* Block builders append their outputs to [outs]; each creates a
     statically-known number of logic nodes. *)
  let outs = ref [] in
  let emit id = outs := id :: !outs in
  let blk_add () =
    (* 4-bit ripple slice: 17 nodes, 5 outputs. *)
    let cin = pick () in
    let carry = ref cin in
    for _ = 0 to 3 do
      let s, co = add_full_adder net (pick ()) (pick ()) !carry in
      emit s;
      carry := co
    done;
    emit !carry
  in
  let blk_mux () =
    (* 4:1 mux tree: 3 nodes, 1 output. *)
    let mux a b s =
      Network.add_logic net
        Bexpr.(or2 (and2 (v 2) (v 0)) (and2 (not_ (v 2)) (v 1)))
        [| a; b; s |]
    in
    let m0 = mux (pick ()) (pick ()) (pick ()) in
    let m1 = mux (pick ()) (pick ()) (pick ()) in
    emit (mux m0 m1 (pick ()))
  in
  let blk_parity () =
    (* 8-input XOR tree: 7 nodes, 1 output. *)
    let layer xs =
      let rec go = function
        | a :: b :: rest ->
          Network.add_logic net half_sum [| a; b |] :: go rest
        | rest -> rest
      in
      go xs
    in
    let rec reduce = function
      | [ x ] -> x
      | xs -> reduce (layer xs)
    in
    emit (reduce (List.init 8 (fun _ -> pick ())))
  in
  let blk_decode () =
    (* 3:8 one-hot decoder: 8 nodes, 8 outputs. *)
    let a = pick () and b = pick () and c = pick () in
    for k = 0 to 7 do
      let lit i on = if on then Bexpr.var i else Bexpr.not_ (Bexpr.var i) in
      let expr =
        Bexpr.and_list
          [ lit 0 (k land 1 <> 0); lit 1 (k land 2 <> 0); lit 2 (k land 4 <> 0) ]
      in
      emit (Network.add_logic net expr [| a; b; c |])
    done
  in
  let blk_cmp () =
    (* 4-bit equality + less-than: 11 nodes, 2 outputs. *)
    let picked n =
      let arr = Array.make n pis.(0) in
      for i = 0 to n - 1 do
        arr.(i) <- pick ()
      done;
      arr
    in
    let a = picked 4 in
    let b = picked 4 in
    let eqs =
      Array.map2
        (fun x y -> Network.add_logic net Bexpr.(not_ (xor2 (v 0) (v 1))) [| x; y |])
        a b
    in
    emit
      (Network.add_logic net
         (Bexpr.and_list (List.init 4 Bexpr.var))
         eqs);
    let lt = ref (Network.add_logic net Bexpr.(and2 (not_ (v 0)) (v 1)) [| a.(0); b.(0) |]) in
    for i = 1 to 3 do
      (* lt' = (!a & b) | (a==b) & lt *)
      lt :=
        Network.add_logic net
          Bexpr.(or2 (and2 (not_ (v 0)) (v 1)) (and2 (v 2) (v 3)))
          [| a.(i); b.(i); eqs.(i); !lt |]
    done;
    emit !lt
  in
  let blk_glue count =
    (* Exactly [count] random-function nodes chained loosely. *)
    let recent = ref [] in
    for _ = 1 to count do
      let arity = 2 + Random.State.int st 3 in
      let fanins = Array.make arity pis.(0) in
      for i = 0 to arity - 1 do
        fanins.(i) <-
          (match !recent with
           | r :: _ when i = 0 && Random.State.bool st -> r
           | _ -> pick ())
      done;
      let id = Network.add_logic net (random_function st arity) fanins in
      recent := id :: !recent;
      match !recent with
      | a :: b :: c :: d :: _ -> recent := [ a; b; c; d ]; emit a
      | _ -> emit id
    done
  in
  let spine = ref pis.(0) in
  let per_rank = nodes / ranks in
  for rank = 0 to ranks - 1 do
    outs := [];
    let budget =
      if rank = ranks - 1 then nodes - logic_nodes () else per_rank
    in
    let floor = logic_nodes () in
    (* Guaranteed depth spine: one node chaining through every rank. *)
    if budget > 0 then begin
      spine :=
        Network.add_logic net Bexpr.(xor2 (v 0) (v 1)) [| !spine; pick () |];
      emit !spine
    end;
    let remaining () = budget - (logic_nodes () - floor) in
    while remaining () >= 20 do
      match Random.State.int st 5 with
      | 0 -> blk_add ()
      | 1 -> blk_mux ()
      | 2 -> blk_parity ()
      | 3 -> blk_decode ()
      | _ -> blk_cmp ()
    done;
    let r = remaining () in
    if r > 0 then blk_glue r;
    let rank_outs = Array.of_list (List.rev !outs) in
    if Array.length rank_outs > 0 then begin
      (* Refresh the skip reservoir with a sample of this rank. *)
      let n_sample = min 64 (Array.length rank_outs) in
      let sample = Array.make n_sample rank_outs.(0) in
      for i = 0 to n_sample - 1 do
        sample.(i) <- rank_outs.(Random.State.int st (Array.length rank_outs))
      done;
      older := Array.append (if Array.length !older > 512 then sample else !older) sample;
      prev_rank := rank_outs
    end
  done;
  (* Outputs: the last rank's signals (capped), plus the spine. *)
  let chosen = Hashtbl.create 64 in
  let n_out = ref 0 in
  let emit_po id =
    if not (Hashtbl.mem chosen id) then begin
      Hashtbl.replace chosen id ();
      Network.add_po net (Printf.sprintf "o%d" !n_out) id;
      incr n_out
    end
  in
  emit_po !spine;
  Array.iter (fun id -> if !n_out < 256 then emit_po id) !prev_rank;
  net

let combine ~name parts =
  let net = Network.create ~name () in
  List.iteri
    (fun pi part ->
      let prefix = Printf.sprintf "u%d_" pi in
      let remap = Array.make (Network.num_nodes part) (-1) in
      List.iter
        (fun id ->
          let n = Network.node part id in
          remap.(id) <- Network.add_pi net (prefix ^ n.Network.name))
        (Network.pis part);
      (* Latches in parts are not supported by this combinator. *)
      assert (Network.latches part = []);
      List.iter
        (fun id ->
          let n = Network.node part id in
          match n.Network.kind with
          | Network.Pi | Network.Latch_out -> ()
          | Network.Logic ->
            let fanins = Array.map (fun f -> remap.(f)) n.Network.fanins in
            remap.(id) <-
              Network.add_logic net ~name:(prefix ^ n.Network.name)
                n.Network.expr fanins)
        (Network.topological_order part);
      List.iter
        (fun (po, id) -> Network.add_po net (prefix ^ po) remap.(id))
        (Network.pos part))
    parts;
  net

let lfsr n =
  if n < 3 then invalid_arg "lfsr";
  let net = Network.create ~name:(Printf.sprintf "lfsr%d" n) () in
  let enable = Network.add_pi net "enable" in
  (* State latches form a shift ring with an XOR feedback of the two
     highest taps, gated by enable. *)
  let state =
    Array.init n (fun i ->
        Network.add_latch_output net ~name:(Printf.sprintf "q%d" i) ())
  in
  let feedback =
    Network.add_logic net Bexpr.(xor2 (v 0) (v 1))
      [| state.(n - 1); state.(n - 2) |]
  in
  let next i =
    let src = if i = 0 then feedback else state.(i - 1) in
    (* enable ? src : hold *)
    Network.add_logic net
      Bexpr.(or2 (and2 (v 0) (v 1)) (and2 (not_ (v 0)) (v 2)))
      [| enable; src; state.(i) |]
  in
  Array.iteri
    (fun i q ->
      Network.set_latch_input net ~latch_output:q (next i);
      Network.add_po net (Printf.sprintf "o%d" i) q)
    state;
  net

let pipelined_parity n stages =
  if n < 2 || stages < 1 then invalid_arg "pipelined_parity";
  let net = Network.create ~name:(Printf.sprintf "pparity%d_%d" n stages) () in
  let xs = declare_vector net "x" n in
  let rec reduce = function
    | [] -> invalid_arg "pipelined_parity"
    | [ x ] -> x
    | xs ->
      let rec pair = function
        | [] -> []
        | [ x ] -> [ x ]
        | x :: y :: rest ->
          Network.add_logic net Bexpr.(xor2 (v 0) (v 1)) [| x; y |] :: pair rest
      in
      reduce (pair xs)
  in
  let root = reduce (Array.to_list xs) in
  (* All latch ranks stacked at the output: depth 0 after the last
     rank, full tree depth before the first — retiming spreads them
     back through the tree. *)
  let rec stack src k =
    if k = 0 then src else stack (Network.add_latch net src) (k - 1)
  in
  Network.add_po net "par" (stack root stages);
  net

(* Parallel-prefix (Kogge-Stone) adder: generate/propagate pairs
   combined with the prefix operator (g, p) o (g', p') =
   (g | p & g', p & p'). Every prefix level fans out to the next, so
   the graph is rich in reconvergent multi-fanout — the structure
   where DAG covering shines. *)
let kogge_stone_adder n =
  let net = Network.create ~name:(Printf.sprintf "ks%d" n) () in
  let a = declare_vector net "a" n in
  let b = declare_vector net "b" n in
  let cin = Network.add_pi net "cin" in
  let g0 = Array.map2 (fun x y -> Network.add_logic net half_carry [| x; y |]) a b in
  let p0 = Array.map2 (fun x y -> Network.add_logic net half_sum [| x; y |]) a b in
  (* Prefix combine: g = g_hi | p_hi & g_lo ; p = p_hi & p_lo. *)
  let combine (g_hi, p_hi) (g_lo, p_lo) =
    let g =
      Network.add_logic net
        Bexpr.(or2 (v 0) (and2 (v 1) (v 2)))
        [| g_hi; p_hi; g_lo |]
    in
    let p = Network.add_logic net Bexpr.(and2 (v 0) (v 1)) [| p_hi; p_lo |] in
    (g, p)
  in
  let current = ref (Array.init n (fun i -> (g0.(i), p0.(i)))) in
  let dist = ref 1 in
  while !dist < n do
    let next =
      Array.mapi
        (fun i gp -> if i >= !dist then combine gp !current.(i - !dist) else gp)
        !current
    in
    current := next;
    dist := !dist * 2
  done;
  (* Carry into bit i: prefix(i-1).g | prefix(i-1).p & cin. *)
  let carry_into i =
    if i = 0 then cin
    else
      let g, p = !current.(i - 1) in
      Network.add_logic net
        Bexpr.(or2 (v 0) (and2 (v 1) (v 2)))
        [| g; p; cin |]
  in
  for i = 0 to n - 1 do
    let s = Network.add_logic net half_sum [| p0.(i); carry_into i |] in
    Network.add_po net (Printf.sprintf "s%d" i) s
  done;
  Network.add_po net "cout" (carry_into n);
  net

(* Wallace-style multiplier: all partial products first, then
   level-wise 3:2 compression of each bit column until at most two
   rows remain, then a ripple carry-propagate stage. *)
let wallace_multiplier n =
  let net = Network.create ~name:(Printf.sprintf "wmult%d" n) () in
  let a = declare_vector net "a" n in
  let b = declare_vector net "b" n in
  let width = 2 * n in
  (* columns.(w) = list of bits of weight w awaiting compression *)
  let columns = Array.make width [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let pp =
        Network.add_logic net Bexpr.(and2 (v 0) (v 1)) [| a.(i); b.(j) |]
      in
      columns.(i + j) <- pp :: columns.(i + j)
    done
  done;
  let more_than_two = ref true in
  while !more_than_two do
    more_than_two := false;
    let next = Array.make width [] in
    for w = 0 to width - 1 do
      let rec compress = function
        | x :: y :: z :: rest ->
          let s, c = add_full_adder net x y z in
          next.(w) <- s :: next.(w);
          if w + 1 < width then next.(w + 1) <- c :: next.(w + 1);
          compress rest
        | [ x; y ] when List.length columns.(w) > 2 ->
          (* half-adder only when the column shrinks this level *)
          let s, c = add_half_adder net x y in
          next.(w) <- s :: next.(w);
          if w + 1 < width then next.(w + 1) <- c :: next.(w + 1)
        | rest -> next.(w) <- rest @ next.(w)
      in
      compress columns.(w)
    done;
    Array.blit next 0 columns 0 width;
    Array.iter (fun col -> if List.length col > 2 then more_than_two := true) columns
  done;
  (* Final carry-propagate with a parallel-prefix (Kogge-Stone)
     stage, keeping the whole multiplier at logarithmic depth. *)
  let zero = lazy (Network.add_logic net (Bexpr.const false) [||]) in
  let gp =
    Array.init width (fun w ->
        match columns.(w) with
        | [ x; y ] ->
          (Network.add_logic net half_carry [| x; y |],
           Network.add_logic net half_sum [| x; y |])
        | [ x ] -> (Lazy.force zero, x)
        | [] -> (Lazy.force zero, Lazy.force zero)
        | _ -> assert false)
  in
  let combine (g_hi, p_hi) (g_lo, p_lo) =
    let g =
      Network.add_logic net
        Bexpr.(or2 (v 0) (and2 (v 1) (v 2)))
        [| g_hi; p_hi; g_lo |]
    in
    let p = Network.add_logic net Bexpr.(and2 (v 0) (v 1)) [| p_hi; p_lo |] in
    (g, p)
  in
  let prefix = ref (Array.copy gp) in
  let dist = ref 1 in
  while !dist < width do
    let next =
      Array.mapi
        (fun i x -> if i >= !dist then combine x !prefix.(i - !dist) else x)
        !prefix
    in
    prefix := next;
    dist := !dist * 2
  done;
  for w = 0 to width - 1 do
    let _, p_w = gp.(w) in
    let bit =
      if w = 0 then p_w
      else
        let carry_in, _ = !prefix.(w - 1) in
        Network.add_logic net half_sum [| p_w; carry_in |]
    in
    Network.add_po net (Printf.sprintf "p%d" w) bit
  done;
  net

let barrel_shifter n =
  if n land (n - 1) <> 0 || n < 2 then
    invalid_arg "barrel_shifter: n must be a power of two";
  let net = Network.create ~name:(Printf.sprintf "bshift%d" n) () in
  let xs = declare_vector net "x" n in
  let log_n =
    let rec go k acc = if 1 lsl k >= n then k + acc else go (k + 1) acc in
    go 0 0
  in
  let sel = declare_vector net "s" log_n in
  let stage signals level =
    let shift = 1 lsl level in
    Array.mapi
      (fun i x ->
        (* y_i = sel ? (i >= shift ? x_(i-shift) : 0) : x_i *)
        if i >= shift then
          Network.add_logic net
            Bexpr.(or2 (and2 (not_ (v 0)) (v 1)) (and2 (v 0) (v 2)))
            [| sel.(level); x; signals.(i - shift) |]
        else
          Network.add_logic net
            Bexpr.(and2 (not_ (v 0)) (v 1))
            [| sel.(level); x |])
      signals
  in
  let out = ref xs in
  for level = 0 to log_n - 1 do
    out := stage !out level
  done;
  Array.iteri
    (fun i y -> Network.add_po net (Printf.sprintf "y%d" i) y)
    !out;
  net
