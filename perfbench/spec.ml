(* One benchmark request, in the two spellings the system accepts: a CLI
   argument vector for the one-shot path and a typed {!Request.t} for the
   daemon.  Every parameter is spelled out, so both spellings carry the
   same fingerprint whatever the CLI defaults become. *)

module Req = Olfu_service.Request

type target = Config of string | File of string

type op =
  | Analyze
  | Lint of string list  (** disabled rule codes *)
  | Implic of { depth : int; budget : int }
  | Invar of { k : int; no_prove : bool }
  | Slice
  | Safety of { window : int; seu_limit : int }
  | Coverage of { sample : int }

type t = { op : op; target : target }

let op_name = function
  | Analyze -> "analyze"
  | Lint _ -> "lint"
  | Implic _ -> "implic"
  | Invar _ -> "invar"
  | Slice -> "slice"
  | Safety _ -> "safety"
  | Coverage _ -> "coverage"

let op_args = function
  | Analyze | Slice -> []
  | Lint codes -> List.concat_map (fun c -> [ "--disable"; c ]) codes
  | Implic { depth; budget } ->
    [ "--learn-depth"; string_of_int depth; "--learn-budget"; string_of_int budget ]
  | Invar { k; no_prove } ->
    [ "-k"; string_of_int k ] @ if no_prove then [ "--no-prove" ] else []
  | Safety { window; seu_limit } ->
    [ "--window"; string_of_int window; "--seu-limit"; string_of_int seu_limit ]
  | Coverage { sample } -> [ "--sample"; string_of_int sample ]

let target_args = function Config c -> [ "-c"; c ] | File p -> [ "-f"; p ]

(* The reference-digest key: the request as typed, with a file target
   named by its basename so the key does not depend on the checkout. *)
let label s =
  let t =
    match s.target with File p -> File (Filename.basename p) | c -> c
  in
  String.concat " " ((op_name s.op :: target_args t) @ op_args s.op)

let argv ~cli ~jobs s =
  Array.of_list
    ((cli :: op_name s.op :: target_args s.target)
    @ op_args s.op
    @ [ "--jobs"; string_of_int jobs; "--format"; "json" ])

let request ~id ~fmt ~jobs s =
  let target =
    match s.target with Config c -> Req.Config c | File p -> Req.File p
  in
  let op =
    match s.op with
    | Analyze -> Req.Analyze { paper = false }
    | Lint disabled ->
      Req.Lint
        {
          waivers = None;
          baseline = None;
          disabled;
          software = false;
          invariants = false;
          fail_on = Req.Fail_on Olfu_lint.Rule.Error;
        }
    | Implic { depth; budget } ->
      Req.Implic { learn_depth = depth; learn_budget = budget; invariants = false }
    | Invar { k; no_prove } -> Req.Invar { k; no_prove }
    | Slice -> Req.Slice { dot = false }
    | Safety { window; seu_limit } -> Req.Safety { window; seu_limit }
    | Coverage { sample } -> Req.Coverage { sample }
  in
  Req.run ~id ~fmt ~jobs target op

(* Defaults of the CLI, spelled out. *)
let implic = Implic { depth = 2; budget = 200_000 }
let invar = Invar { k = 1; no_prove = false }
let safety = Safety { window = 4; seu_limit = 64 }
let lint = Lint []
