module J = Olfu_obs.Json

type outcome = {
  json : string;
  text : string;
  summary : string;
  status : Response.status;
  aux : (string * string) list;
}

type loaded = {
  nl : Olfu_netlist.Netlist.t;
  mission : Olfu.Mission.t;
  digest : string;
  cfg : Olfu_soc.Soc.config option;
}

type value = Loaded of loaded | Flow of Olfu.Flow.report | Outcome of outcome

type stats = {
  entries : int;
  bytes : int;
  budget : int;
  hits : int;
  misses : int;
  evictions : int;
}

type entry = { value : value; bytes : int; mutable tick : int }

type t = {
  tbl : (string, entry) Hashtbl.t;
  building : (string, value Olfu_netlist.Once.t) Hashtbl.t;
      (* in-flight builds of {!memo}, one per key *)
  budget : int option;
  m : Mutex.t;
  mutable used : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?byte_budget () =
  {
    tbl = Hashtbl.create 64;
    building = Hashtbl.create 8;
    budget = byte_budget;
    m = Mutex.create ();
    used = 0;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Size at insertion: the whole reachable graph of the value.  Shared
   substructure (a [Loaded] netlist also reachable from a [Flow] report)
   is counted once per entry, so [used] over-approximates the true
   footprint — the safe direction for a budget. *)
let size_of value = Obj.reachable_words (Obj.repr value) * (Sys.word_size / 8)

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None ->
        t.misses <- t.misses + 1;
        None
      | Some e ->
        t.clock <- t.clock + 1;
        e.tick <- t.clock;
        t.hits <- t.hits + 1;
        Some e.value)

let evict_locked t budget ~keep =
  let exception Done in
  try
    while t.used > budget && Hashtbl.length t.tbl > 1 do
      let victim =
        Hashtbl.fold
          (fun k e acc ->
            if String.equal k keep then acc
            else
              match acc with
              | Some (_, e') when e'.tick <= e.tick -> acc
              | _ -> Some (k, e))
          t.tbl None
      in
      match victim with
      | None -> raise Done (* only the protected entry remains *)
      | Some (k, e) ->
        Hashtbl.remove t.tbl k;
        t.used <- t.used - e.bytes;
        t.evictions <- t.evictions + 1
    done
  with Done -> ()

let add t key value =
  (* an unbudgeted session never evicts, so it never sizes *)
  let bytes = match t.budget with None -> 0 | Some _ -> size_of value in
  locked t (fun () ->
      (match Hashtbl.find_opt t.tbl key with
      | Some old ->
        t.used <- t.used - old.bytes;
        Hashtbl.remove t.tbl key
      | None -> ());
      t.clock <- t.clock + 1;
      Hashtbl.replace t.tbl key { value; bytes; tick = t.clock };
      t.used <- t.used + bytes;
      Option.iter (fun budget -> evict_locked t budget ~keep:key) t.budget)

(* One build per key at a time: a miss on a key another request is
   building waits for that build instead of running its own.  Every
   consumer then holds one value; two copies of a loaded netlist would
   each grow their own per-netlist artifacts, and which copy the session
   kept would depend on which build finished last. *)
let memo t key build =
  let module Once = Olfu_netlist.Once in
  let found =
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some e ->
          t.clock <- t.clock + 1;
          e.tick <- t.clock;
          t.hits <- t.hits + 1;
          `Hit e.value
        | None -> (
          t.misses <- t.misses + 1;
          match Hashtbl.find_opt t.building key with
          | Some c -> `Join c
          | None ->
            let c =
              Once.make (fun () ->
                  let v = build () in
                  add t key v;
                  v)
            in
            Hashtbl.replace t.building key c;
            `Build c))
  in
  match found with
  | `Hit v -> (v, true)
  | `Join c -> (Once.force c, false)
  | `Build c ->
    Fun.protect
      ~finally:(fun () ->
        locked t (fun () ->
            match Hashtbl.find_opt t.building key with
            | Some c' when c' == c -> Hashtbl.remove t.building key
            | _ -> ()))
      (fun () -> (Once.force c, false))

let stats t =
  locked t (fun () ->
      {
        entries = Hashtbl.length t.tbl;
        bytes = t.used;
        budget = Option.value t.budget ~default:0;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
      })

let stats_json s =
  J.Obj
    [
      ("entries", J.Int s.entries);
      ("bytes", J.Int s.bytes);
      ("budget", J.Int s.budget);
      ("hits", J.Int s.hits);
      ("misses", J.Int s.misses);
      ("evictions", J.Int s.evictions);
    ]
