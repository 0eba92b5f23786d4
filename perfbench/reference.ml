(* Reference digests: the MD5 of each request's [--format json] answer,
   recorded once from one-shot runs at [--jobs 1].  Every benchmark run
   compares its answers against them, so a wrong or jobs-dependent
   answer counts as a failed operation. *)

module J = Olfu_obs.Json

let path = Filename.concat "perfbench" "reference.json"
let digest s = Digest.to_hex (Digest.string s)

let load () =
  let ic = open_in_bin path in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match J.parse src with
  | Error m -> failwith (path ^ ": " ^ m)
  | Ok doc -> (
    match J.member "digests" doc with
    | Some (J.Obj l) ->
      let t = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          match J.to_string_opt v with
          | Some d -> Hashtbl.replace t k d
          | None -> failwith (path ^ ": digest of " ^ k ^ " is not a string"))
        l;
      t
    | _ -> failwith (path ^ ": no \"digests\" object"))

let save digests =
  J.to_file ~indent:true path
    (J.Obj
       [
         ( "recorded_with",
           J.Obj
             [
               ("git", J.Str (Olfu_obs.Manifest.git_describe ()));
               ("jobs", J.Int 1);
               ("format", J.Str "json");
             ] );
         ("digests", J.Obj (List.map (fun (k, d) -> (k, J.Str d)) digests));
       ])
