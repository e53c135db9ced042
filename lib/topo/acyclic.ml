let find_cycle g =
  let comps = Scc.components g in
  let non_trivial =
    Array.to_list comps
    |> List.find_opt (fun c ->
           match c with
           | [ v ] -> Digraph.has_edge g v v
           | _ :: _ :: _ -> true
           | _ -> false)
  in
  match non_trivial with
  | None -> None
  | Some [ v ] -> Some [ v ]
  | Some (start :: _ as members) ->
      (* Walk inside the component until the start vertex is revisited. *)
      let in_comp = Bitset.of_list (Digraph.vertex_count g) members in
      let rec walk v acc visited =
        let next =
          List.find
            (fun w -> Bitset.mem in_comp w)
            (Digraph.succ g v)
        in
        if next = start then List.rev (v :: acc)
        else if List.mem next visited then
          (* Closed a cycle not through [start]: cut the prefix. *)
          let rec cut = function
            | w :: tl when w <> next -> cut tl
            | l -> l
          in
          cut (List.rev (v :: acc))
        else walk next (v :: acc) (next :: visited)
      in
      Some (walk start [] [ start ])
  | Some [] -> None
