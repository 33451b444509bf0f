type t =
  | Explicit of {
      mrm : Markov.Mrm.t;
      labeling : Markov.Labeling.t;
      init : Linalg.Vec.t;
    }
  | Interval of {
      imrm : Robust.Imrm.t;
      labeling : Markov.Labeling.t;
      init : Linalg.Vec.t;
    }
  | Program of { path : string; succ : Explore.Succ.t }

type error = Unknown_model of string | Invalid of string

let invalid fmt = Printf.ksprintf (fun message -> Error (Invalid message)) fmt

(* "<base>-drift" (10%) or "<base>-drift:PCT" with 0 <= PCT < 100. *)
let drift_variant name =
  let stem, pct =
    match String.rindex_opt name ':' with
    | Some i when i > 0 && i < String.length name - 1 ->
      ( String.sub name 0 i,
        float_of_string_opt
          (String.sub name (i + 1) (String.length name - i - 1)) )
    | _ -> (name, Some 10.0)
  in
  match pct with
  | Some pct
    when Filename.check_suffix stem "-drift" && pct >= 0.0 && pct < 100.0 ->
    Some (Filename.chop_suffix stem "-drift", pct)
  | _ -> None

let widen name pct mrm labeling init =
  match Robust.Imrm.of_mrm ~rate_drift:(pct /. 100.0) mrm with
  | imrm -> Ok (Interval { imrm; labeling; init })
  | exception Invalid_argument message ->
    invalid "cannot widen %s: %s" name message

let explicit ?drift name mrm labeling init =
  match drift with
  | None -> Ok (Explicit { mrm; labeling; init })
  | Some pct -> widen name pct mrm labeling init

let resolve ?file ?drift ?imrm name =
  match imrm, file with
  | Some path, _ -> begin
      match Robust.Imrm_io.parse_file path with
      | { Robust.Imrm_io.imrm; labeling; init } ->
        Ok (Interval { imrm; labeling; init })
      | exception Robust.Imrm_io.Format_error message ->
        invalid "interval model %s: %s" path message
      | exception Sys_error message -> Error (Invalid message)
    end
  | None, Some path when Filename.check_suffix path ".gcm" ->
    if drift <> None then
      invalid "%s: .gcm models cannot be widened into interval models" path
    else begin
      match Lang.Gcm.load_file path with
      | Ok succ -> Ok (Program { path; succ })
      | Error message -> Error (Invalid message)
    end
  | None, Some path -> begin
      match Io.Mrm_format.parse_file path with
      | { Io.Mrm_format.mrm; labeling; init } ->
        explicit ?drift path mrm labeling init
      | exception Io.Mrm_format.Syntax_error (message, line) ->
        invalid "%s:%d: %s" path line message
      | exception Sys_error message -> Error (Invalid message)
    end
  | None, None -> begin
      match Builtin.load name, drift_variant name with
      | Some (mrm, labeling, init), _ -> explicit ?drift name mrm labeling init
      | None, Some (base, pct) -> begin
          match Builtin.load base with
          | None -> Error (Unknown_model name)
          | Some _ when drift <> None ->
            invalid "%s is already an interval model and cannot be widened \
                     again" name
          | Some (mrm, labeling, init) -> widen name pct mrm labeling init
        end
      | None, None -> Error (Unknown_model name)
    end
