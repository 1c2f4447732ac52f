open Dagmap_logic
open Dagmap_genlib
open Dagmap_core
open Dagmap_circuits
open Dagmap_flow

type config = {
  count : int;
  seed : int;
  max_nodes : int;
  libs : (string * Libraries.t) list;
  modes : Flow.engine list;
  jobs : int list;
  rounds : int;
  epsilon : float;
  max_failures : int;
}

let default_config lib =
  { count = 25;
    seed = 42;
    max_nodes = 60;
    libs = [ ("base", lib) ];
    modes =
      [ Flow.Pattern Mapper.Tree;
        Flow.Pattern Mapper.Dag;
        Flow.Pattern Mapper.Dag_extended;
        Flow.Cut { priority = Flow.default_cut_priority } ];
    jobs = [ 1; 4 ];
    rounds = 6;
    epsilon = 1e-6;
    max_failures = 4 }

type failure = {
  circuit : int;
  case_name : string;
  issues : Check.issue list;
  network : Network.t;
  original_nodes : int;
  shrunk_nodes : int;
}

type outcome = {
  circuits : int;
  cases : int;
  failures : failure list;
  seconds : float;
  cases_per_second : float;
}

type case = {
  lib_tag : string;
  db : Matchdb.t;
  engine : Flow.engine;
  c_jobs : int;
}

let case_name c =
  Printf.sprintf "%s/%s/jobs=%d" c.lib_tag (Flow.engine_name c.engine) c.c_jobs

let cases_of cfg =
  List.concat_map
    (fun (lib_tag, lib) ->
      let db = Matchdb.prepare lib in
      List.concat_map
        (fun engine ->
          List.map (fun c_jobs -> { lib_tag; db; engine; c_jobs }) cfg.jobs)
        cfg.modes)
    cfg.libs

(* Map one network under one configuration and audit the result. Any
   exception out of the flow (Unmappable, a validator failure...) is
   itself a finding — the shrinker must be able to chase it. *)
let issues_of cfg case net =
  match
    let g = Flow.decompose net in
    let r = Flow.map ~jobs:case.c_jobs case.engine case.db g in
    Check.audit ~epsilon:cfg.epsilon ~rounds:cfg.rounds g
      ~predicted:r.Flow.predicted r.Flow.netlist
  with
  | issues -> issues
  | exception e ->
    [ Check.Structural
        (Printf.sprintf "mapping raised %s" (Printexc.to_string e)) ]

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* Rebuild [net] without one primary output and/or with one logic node
   bypassed (every use rewired to its first fanin), then
   garbage-collect logic no kept output reaches. All PIs are kept so
   input indexing stays stable. Returns [None] when the transform
   does not apply (last output, non-logic bypass target, latches). *)
let rebuild ?drop_po ?bypass net =
  if Network.latches net <> [] then None
  else
    let bypass_ok =
      match bypass with
      | None -> true
      | Some b ->
        let n = Network.node net b in
        n.Network.kind = Network.Logic && Array.length n.Network.fanins > 0
    in
    let pos =
      List.filter
        (fun (name, _) ->
          match drop_po with Some d -> not (String.equal name d) | None -> true)
        (Network.pos net)
    in
    if (not bypass_ok) || pos = [] then None
    else begin
      let resolve id =
        match bypass with
        | Some b when b = id -> (Network.node net b).Network.fanins.(0)
        | _ -> id
      in
      (* Reachability over the rewired graph. *)
      let reach = Hashtbl.create 64 in
      let stack = Stack.create () in
      List.iter (fun (_, id) -> Stack.push (resolve id) stack) pos;
      while not (Stack.is_empty stack) do
        let id = Stack.pop stack in
        if not (Hashtbl.mem reach id) then begin
          Hashtbl.replace reach id ();
          let n = Network.node net id in
          match n.Network.kind with
          | Network.Logic ->
            Array.iter (fun f -> Stack.push (resolve f) stack) n.Network.fanins
          | Network.Pi | Network.Latch_out -> ()
        end
      done;
      let fresh = Network.create ~name:(Network.name net) () in
      let map = Hashtbl.create 64 in
      List.iter
        (fun id ->
          Hashtbl.replace map id
            (Network.add_pi fresh (Network.node net id).Network.name))
        (Network.pis net);
      List.iter
        (fun id ->
          let n = Network.node net id in
          match n.Network.kind with
          | Network.Pi | Network.Latch_out -> ()
          | Network.Logic ->
            if Hashtbl.mem reach id && bypass <> Some id then begin
              let fanins =
                Array.map
                  (fun f -> Hashtbl.find map (resolve f))
                  n.Network.fanins
              in
              Hashtbl.replace map id
                (Network.add_logic fresh ~name:n.Network.name n.Network.expr
                   fanins)
            end)
        (Network.topological_order net);
      List.iter
        (fun (name, id) ->
          Network.add_po fresh name (Hashtbl.find map (resolve id)))
        pos;
      Some fresh
    end

(* Greedy delta debugging: as long as some single transform (drop one
   output, bypass one logic node) keeps the case failing, apply it
   and restart. The budget bounds the number of re-audits. *)
let shrink ~fails net0 =
  let budget = ref 400 in
  let candidates net =
    List.map (fun (name, _) -> `Drop name) (Network.pos net)
    @ List.filter_map
        (fun id ->
          if (Network.node net id).Network.kind = Network.Logic then
            Some (`Bypass id)
          else None)
        (List.rev (Network.topological_order net))
  in
  let apply net = function
    | `Drop name -> rebuild ~drop_po:name net
    | `Bypass id -> rebuild ~bypass:id net
  in
  let rec go net =
    let rec first = function
      | [] -> net
      | cand :: rest when !budget > 0 -> begin
        decr budget;
        match apply net cand with
        | Some net' when fails net' -> go net'
        | Some _ | None -> first rest
      end
      | _ :: _ -> net
    in
    first (candidates net)
  in
  go net0

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run ?(log = fun (_ : string) -> ()) cfg =
  let t0 = Dagmap_obs.Clock.now () in
  let cases = cases_of cfg in
  let failures = ref [] in
  let total = ref 0 in
  let stop = ref false in
  let i = ref 0 in
  while (not !stop) && !i < cfg.count do
    let idx = !i in
    (* Derived per-circuit parameters: deterministic variety in size
       and interface width. *)
    let seed = cfg.seed + (997 * idx) in
    let inputs = 4 + (idx mod 5) in
    let outputs = 2 + (idx mod 4) in
    let nodes = 8 + (17 * idx mod max 1 cfg.max_nodes) in
    let net = Generators.random_dag ~seed ~inputs ~outputs ~nodes () in
    log
      (Printf.sprintf "circuit %d (seed %d): %s" idx seed (Network.stats net));
    List.iter
      (fun case ->
        if not !stop then begin
          incr total;
          let issues = issues_of cfg case net in
          if issues <> [] then begin
            log
              (Printf.sprintf "circuit %d %s: FAIL (%s) — shrinking" idx
                 (case_name case)
                 (Format.asprintf "%a" Check.pp_issue (List.hd issues)));
            let fails n = issues_of cfg case n <> [] in
            let shrunk = shrink ~fails net in
            failures :=
              { circuit = idx;
                case_name = case_name case;
                issues = issues_of cfg case shrunk;
                network = shrunk;
                original_nodes = Network.num_nodes net;
                shrunk_nodes = Network.num_nodes shrunk }
              :: !failures;
            if List.length !failures >= cfg.max_failures then stop := true
          end
        end)
      cases;
    incr i
  done;
  let seconds = Dagmap_obs.Clock.now () -. t0 in
  { circuits = !i;
    cases = !total;
    failures = List.rev !failures;
    seconds;
    cases_per_second =
      (if seconds > 0.0 then float_of_int !total /. seconds else 0.0) }

let write_repro path f =
  let oc = open_out path in
  Printf.fprintf oc "# techmap fuzz repro: circuit %d, case %s\n" f.circuit
    f.case_name;
  Printf.fprintf oc "# shrunk %d -> %d network nodes\n" f.original_nodes
    f.shrunk_nodes;
  List.iter
    (fun i ->
      Printf.fprintf oc "# issue: %s\n" (Format.asprintf "%a" Check.pp_issue i))
    f.issues;
  output_string oc (Dagmap_blif.Blif.write_network f.network);
  close_out oc
