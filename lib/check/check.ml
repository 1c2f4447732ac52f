open Dagmap_subject
open Dagmap_core
open Dagmap_timing
open Dagmap_sim

type issue =
  | Structural of string
  | Delay_mismatch of {
      output : string;
      predicted : float;
      observed : float;
    }
  | Not_equivalent of Equiv.verdict

let pp_issue ppf = function
  | Structural m -> Format.fprintf ppf "structural: %s" m
  | Delay_mismatch { output; predicted; observed } ->
    Format.fprintf ppf
      "delay: output %s predicted %.6f but mapped netlist arrives at %.6f"
      output predicted observed
  | Not_equivalent v -> Format.fprintf ppf "functional: %a" Equiv.pp_verdict v

let structural nl =
  let issues = ref [] in
  let report fmt = Printf.ksprintf (fun m -> issues := m :: !issues) fmt in
  List.iter (fun m -> issues := m :: !issues) (List.rev (Netlist.lint nl));
  (* The cover-level checks below index instances; skip them when the
     basic lint already failed (indices may be unusable). *)
  if !issues = [] then begin
    let n = Array.length nl.Netlist.instances in
    (* One instance per subject node: the cover queue requires each
       needed node exactly once, so a duplicate means the cover
       construction double-instantiated. *)
    let root_of = Hashtbl.create n in
    Array.iter
      (fun inst ->
        (match Hashtbl.find_opt root_of inst.Netlist.subject_root with
         | Some other ->
           report "instances %d and %d both implement subject node %d"
             other inst.Netlist.inst_id inst.Netlist.subject_root
         | None -> ());
        Hashtbl.replace root_of inst.Netlist.subject_root
          inst.Netlist.inst_id)
      nl.Netlist.instances;
    Array.iter
      (fun inst ->
        if
          not
            (Array.exists
               (fun c -> c = inst.Netlist.subject_root)
               inst.Netlist.covers)
        then
          report "instance %d: subject root %d is not among its covered nodes"
            inst.Netlist.inst_id inst.Netlist.subject_root)
      nl.Netlist.instances;
    (* Fanout consistency: every instance feeds another instance or an
       output. The cover pass only instantiates needed nodes, so a
       dangling instance is dead logic it should not have emitted. *)
    let used = Array.make n false in
    let use = function
      | Netlist.D_gate j -> if j >= 0 && j < n then used.(j) <- true
      | Netlist.D_pi _ | Netlist.D_const _ -> ()
    in
    Array.iter (fun inst -> Array.iter use inst.Netlist.inputs)
      nl.Netlist.instances;
    List.iter (fun (_, d) -> use d) nl.Netlist.outputs;
    Array.iteri
      (fun i u ->
        if not u then
          report "instance %d (%s) is dangling: no instance or output uses it"
            i nl.Netlist.instances.(i).Netlist.gate.Dagmap_genlib.Gate.gate_name)
      used;
    (* No cover contains a primary input: a structural match covers
       only the gate nodes its pattern binds, and a cut instance only
       nodes above its leaves. *)
    let src = nl.Netlist.source in
    Array.iter
      (fun inst ->
        Array.iter
          (fun v ->
            if v >= 0 && v < Subject.num_nodes src && Subject.is_pi src v then
              report "instance %d covers primary input %d"
                inst.Netlist.inst_id v)
          inst.Netlist.covers)
      nl.Netlist.instances;
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (name, _) ->
        if Hashtbl.mem seen name then report "output %s is listed twice" name
        else Hashtbl.replace seen name ())
      nl.Netlist.outputs
  end;
  List.rev_map (fun m -> Structural m) !issues

let delay ?(epsilon = 1e-6) ~predicted nl =
  let report = Sta.analyze nl in
  let observed_of = function
    | Netlist.D_pi _ | Netlist.D_const _ -> 0.0
    | Netlist.D_gate j -> report.Sta.arrival.(j)
  in
  let predicted_tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, a) ->
      if not (Hashtbl.mem predicted_tbl name) then
        Hashtbl.add predicted_tbl name a)
    predicted;
  let issues = ref [] in
  let outputs = Hashtbl.create 16 in
  List.iter
    (fun (name, d) ->
      Hashtbl.replace outputs name ();
      match Hashtbl.find_opt predicted_tbl name with
      | None ->
        issues :=
          Structural
            (Printf.sprintf "delay audit: no predicted arrival for output %s"
               name)
          :: !issues
      | Some p ->
        let o = observed_of d in
        if Float.abs (p -. o) > epsilon then
          issues :=
            Delay_mismatch { output = name; predicted = p; observed = o }
            :: !issues)
    nl.Netlist.outputs;
  List.iter
    (fun (name, _) ->
      if not (Hashtbl.mem outputs name) then
        issues :=
          Structural
            (Printf.sprintf
               "delay audit: predicted arrival for %s, which the netlist \
                does not drive"
               name)
          :: !issues)
    predicted;
  List.rev !issues

let functional ?(rounds = 16) ?seed g nl =
  let n_inputs = g.Subject.num_pis in
  let verdict =
    Equiv.compare_sims ~rounds ?seed ~n_inputs (Simulate.subject g)
      (Simulate.netlist nl)
  in
  if Equiv.is_equivalent verdict then [] else [ Not_equivalent verdict ]

let audit ?epsilon ?rounds ?seed g ~predicted nl =
  match structural nl with
  | _ :: _ as issues -> issues
  | [] -> delay ?epsilon ~predicted nl @ functional ?rounds ?seed g nl

let audit_result ?epsilon ?rounds ?seed g (r : Mapper.result) =
  audit ?epsilon ?rounds ?seed g
    ~predicted:(Mapper.predicted_arrivals r)
    r.Mapper.netlist
