open Dagmap_subject
open Dagmap_core

type verdict =
  | Feasible of { latch_arrivals : float array }
  | Infeasible

(* Sequential labeling fixpoint. Latch-output pseudo-PIs carry the
   arrival of their data input minus phi; everything else is the
   combinational labeling the mapper already implements. Arrivals are
   monotone non-decreasing across iterations once seeded from the
   most optimistic state (-infinity is approximated by 0 after one
   warm-up pass), so either they stabilize within a bounded number of
   sweeps or some loop gains delay each time around — which is
   exactly infeasibility of the period. *)
let check_period db mode net phi =
  let g = Subject.of_network net in
  let n_latches = g.Subject.n_latches in
  if n_latches = 0 then invalid_arg "Seq_opt: combinational circuit";
  let pis = Subject.pi_ids g in
  let n_pis = List.length pis in
  (* Trailing [n_latches] PIs are latch outputs, in latch order. *)
  let latch_of_pi = Hashtbl.create 16 in
  List.iteri
    (fun i id ->
      if i >= n_pis - n_latches then
        Hashtbl.replace latch_of_pi id (i - (n_pis - n_latches)))
    pis;
  (* Trailing [n_latches] outputs are the latch data inputs. *)
  let outputs = g.Subject.outputs in
  let n_outs = Array.length outputs in
  let latch_in_node i = snd outputs.(n_outs - n_latches + i) in
  let real_outputs = Array.sub outputs 0 (n_outs - n_latches) in
  let latch_arrival = Array.make n_latches 0.0 in
  let max_gate_delay =
    List.fold_left
      (fun acc gate -> Float.max acc (Dagmap_genlib.Gate.max_intrinsic_delay gate))
      0.0 (Matchdb.library db).Dagmap_genlib.Libraries.gates
  in
  let divergence_bound =
    (* If a latch arrival ever exceeds the largest possible
       single-sweep combinational delay, some cycle is gaining. *)
    (float_of_int (Subject.num_nodes g) *. max_gate_delay) +. phi
  in
  let pi_arrival node =
    match Hashtbl.find_opt latch_of_pi node with
    | Some i -> latch_arrival.(i)
    | None -> 0.0
  in
  let rec iterate remaining =
    let labels, _, _, _ = Mapper.label ~pi_arrival mode db g in
    let changed = ref false in
    for i = 0 to n_latches - 1 do
      let next = Float.max 0.0 (labels.(latch_in_node i) -. phi) in
      if next > latch_arrival.(i) +. 1e-9 then begin
        latch_arrival.(i) <- next;
        changed := true
      end
    done;
    let diverged =
      Array.exists (fun a -> a > divergence_bound) latch_arrival
    in
    if diverged then Infeasible
    else if not !changed then begin
      (* Fixpoint: the period is feasible iff every true primary
         output also meets it. *)
      let ok =
        Array.for_all
          (fun (_, node) -> labels.(node) <= phi +. 1e-9)
          real_outputs
      in
      if ok then Feasible { latch_arrivals = Array.copy latch_arrival }
      else Infeasible
    end
    else if remaining = 0 then Infeasible
    else iterate (remaining - 1)
  in
  iterate ((4 * n_latches) + 8)

let min_period ?(tolerance = 1e-3) db mode net =
  (* Upper bound: the un-retimed mapped circuit's combinational delay
     is always feasible. Lower bound: the slowest single gate pin
     used anywhere must fit in a period. *)
  let r = Seq_map.run db mode net in
  let hi = ref (Float.max r.Seq_map.comb_delay 1e-6) in
  let lo = ref 0.0 in
  let best = ref !hi in
  while !hi -. !lo > tolerance do
    let mid = (!lo +. !hi) /. 2.0 in
    match check_period db mode net mid with
    | Feasible _ ->
      best := mid;
      hi := mid
    | Infeasible -> lo := mid
  done;
  !best
