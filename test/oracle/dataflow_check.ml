open Ppnpart_poly

type channel_count = { src : int; dst : int; array : string; tokens : int }

type report = {
  env : Interp.env;
  consumed : channel_count list;
  order_violations : (int * int * string) list;
}

let run ?(input = Interp.default_input) program =
  let stmts = List.map fst program in
  let producers = Dependence.last_writer_maps stmts in
  (* Per (producer stmt, array) store of produced values: the channel
     contents. *)
  let channel_store : (int * string, (int array, int) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 32
  in
  let store_for key =
    match Hashtbl.find_opt channel_store key with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 256 in
      Hashtbl.add channel_store key t;
      t
  in
  let env : Interp.env = Hashtbl.create 16 in
  let env_store array =
    match Hashtbl.find_opt env array with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 256 in
      Hashtbl.add env array t;
      t
  in
  let consumed : (int * int * string, int) Hashtbl.t = Hashtbl.create 32 in
  let violations : (int * int * string, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun j (stmt, f) ->
      let reads = Stmt.reads stmt and writes = Stmt.writes stmt in
      Domain.iter (Stmt.domain stmt) (fun point ->
          let read_one access =
            let array = Access.array_name access in
            let element = Access.eval access point in
            let producer =
              Option.bind (Hashtbl.find_opt producers array) (fun m ->
                  Hashtbl.find_opt m element)
            in
            match producer with
            | None -> input array element
            | Some i when i = j -> (
              (* Intra-process dependence: read the own store. *)
              match Hashtbl.find_opt (store_for (i, array)) element with
              | Some v -> v
              | None ->
                Hashtbl.replace violations (i, j, array) ();
                input array element)
            | Some i -> (
              let key = (i, j, array) in
              let c =
                Option.value ~default:0 (Hashtbl.find_opt consumed key)
              in
              Hashtbl.replace consumed key (c + 1);
              match Hashtbl.find_opt (store_for (i, array)) element with
              | Some v -> v
              | None ->
                (* The attributed producer has not written this element
                   yet: the program violates the producer-before-consumer
                   discipline. *)
                Hashtbl.replace violations (i, j, array) ();
                input array element)
          in
          let values = List.map read_one reads in
          let v = f point values in
          List.iter
            (fun a ->
              let array = Access.array_name a in
              let element = Access.eval a point in
              Hashtbl.replace (store_for (j, array)) element v;
              Hashtbl.replace (env_store array) element v)
            writes))
    program;
  let consumed =
    Hashtbl.fold
      (fun (src, dst, array) tokens acc -> { src; dst; array; tokens } :: acc)
      consumed []
    |> List.sort compare
  in
  let order_violations =
    Hashtbl.fold (fun k () acc -> k :: acc) violations [] |> List.sort compare
  in
  { env; consumed; order_violations }

let verify ?input program =
  let r = run ?input program in
  let reference = Interp.run ?input program in
  let flows = Dependence.flow_edges (List.map fst program) in
  let flow_counts =
    List.map
      (fun { Dependence.src; dst; array; tokens } -> { src; dst; array; tokens })
      flows
  in
  r.order_violations = []
  && Interp.equal_env r.env reference
  && r.consumed = flow_counts
