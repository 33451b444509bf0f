type document = {
  mrm : Markov.Mrm.t;
  labeling : Markov.Labeling.t;
  init : Linalg.Vec.t;
}

exception Syntax_error of string * int

let fail line message = raise (Syntax_error (message, line))

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let strip_comment s =
  match String.index_opt s '#' with
  | Some i -> String.sub s 0 i
  | None -> s

let parse_int line word =
  match int_of_string_opt word with
  | Some i -> i
  | None -> fail line (Printf.sprintf "expected an integer, got %S" word)

let parse_float line word =
  match float_of_string_opt word with
  | Some x -> x
  | None -> fail line (Printf.sprintf "expected a number, got %S" word)

let parse text =
  let lines = String.split_on_char '\n' text in
  let n = ref (-1) in
  let rewards = ref [] in
  let rates = ref [] in
  let impulses = ref [] in
  let labels = ref [] in
  let init_entries = ref [] in
  List.iteri
    (fun k raw ->
      let line = k + 1 in
      let words = split_words (strip_comment raw) in
      match words with
      | [] -> ()
      | "states" :: rest -> begin
          match rest with
          | [ w ] ->
            if !n >= 0 then fail line "duplicate 'states' line";
            let v = parse_int line w in
            if v <= 0 then fail line "state count must be positive";
            n := v
          | _ -> fail line "usage: states <n>"
        end
      | "reward" :: rest -> begin
          match rest with
          | [ s; x ] ->
            rewards := (line, parse_int line s, parse_float line x) :: !rewards
          | _ -> fail line "usage: reward <state> <value>"
        end
      | "rate" :: rest -> begin
          match rest with
          | [ s; d; x ] ->
            rates :=
              (line, parse_int line s, parse_int line d, parse_float line x)
              :: !rates
          | _ -> fail line "usage: rate <source> <target> <value>"
        end
      | "impulse" :: rest -> begin
          match rest with
          | [ s; d; x ] ->
            impulses :=
              (line, parse_int line s, parse_int line d, parse_float line x)
              :: !impulses
          | _ -> fail line "usage: impulse <source> <target> <value>"
        end
      | "label" :: rest -> begin
          match rest with
          | name :: states when states <> [] ->
            labels := (line, name, List.map (parse_int line) states) :: !labels
          | _ -> fail line "usage: label <name> <state> ..."
        end
      | "init" :: rest -> begin
          match rest with
          | [ s; p ] ->
            init_entries :=
              (line, parse_int line s, parse_float line p) :: !init_entries
          | [ s ] -> init_entries := (line, parse_int line s, 1.0) :: !init_entries
          | _ -> fail line "usage: init <state> [probability]"
        end
      | word :: _ -> fail line (Printf.sprintf "unknown directive %S" word))
    lines;
  if !n < 0 then fail 1 "missing 'states' line";
  let n = !n in
  let check_state line s =
    if s < 0 || s >= n then fail line (Printf.sprintf "state %d out of range" s)
  in
  let reward_vec = Array.make n 0.0 in
  List.iter
    (fun (line, s, x) ->
      check_state line s;
      if x < 0.0 then fail line "rewards must be non-negative";
      reward_vec.(s) <- x)
    !rewards;
  let triples =
    List.map
      (fun (line, s, d, x) ->
        check_state line s;
        check_state line d;
        if x <= 0.0 then fail line "rates must be positive";
        (s, d, x))
      !rates
  in
  let labeling =
    List.fold_left
      (fun acc (line, name, states) ->
        List.iter (check_state line) states;
        if Markov.Labeling.has_proposition acc name then
          fail line (Printf.sprintf "duplicate label %S" name);
        Markov.Labeling.add acc name states)
      (Markov.Labeling.empty ~n) (List.rev !labels)
  in
  let init = Array.make n 0.0 in
  (match !init_entries with
   | [] -> init.(0) <- 1.0
   | entries ->
     List.iter
       (fun (line, s, p) ->
         check_state line s;
         if p < 0.0 || p > 1.0 then fail line "init probability out of range";
         init.(s) <- init.(s) +. p)
       entries);
  let init = Linalg.Vec.of_array init in
  if not (Linalg.Vec.is_distribution ~tol:1e-9 init) then
    fail 1 "the initial distribution does not sum to one";
  let mrm = Markov.Mrm.of_transitions ~n triples ~rewards:reward_vec in
  let mrm =
    match !impulses with
    | [] -> mrm
    | entries ->
      let triples =
        List.map
          (fun (line, s, d, x) ->
            check_state line s;
            check_state line d;
            if x < 0.0 then fail line "impulses must be non-negative";
            (s, d, x))
          entries
      in
      (match
         Markov.Mrm.with_impulses mrm (Linalg.Csr.of_coo ~rows:n ~cols:n triples)
       with
       | m -> m
       | exception Invalid_argument message -> fail 1 message)
  in
  { mrm; labeling; init }

let parse_file path = parse (In_channel.with_open_bin path In_channel.input_all)

let print doc =
  let buf = Buffer.create 1024 in
  let n = Markov.Mrm.n_states doc.mrm in
  Buffer.add_string buf (Printf.sprintf "states %d\n" n);
  for s = 0 to n - 1 do
    let r = Markov.Mrm.reward doc.mrm s in
    if r <> 0.0 then Buffer.add_string buf (Printf.sprintf "reward %d %.17g\n" s r)
  done;
  Linalg.Csr.iter
    (Markov.Ctmc.rates (Markov.Mrm.ctmc doc.mrm))
    (fun s d x -> Buffer.add_string buf (Printf.sprintf "rate %d %d %.17g\n" s d x));
  (match Markov.Mrm.impulses doc.mrm with
   | None -> ()
   | Some matrix ->
     Linalg.Csr.iter matrix (fun s d x ->
         Buffer.add_string buf (Printf.sprintf "impulse %d %d %.17g\n" s d x)));
  List.iter
    (fun name ->
      let mask = Markov.Labeling.sat doc.labeling name in
      let states =
        List.filter (fun s -> mask.(s)) (List.init n Fun.id)
        |> List.map string_of_int |> String.concat " "
      in
      if states <> "" then
        Buffer.add_string buf (Printf.sprintf "label %s %s\n" name states))
    (Markov.Labeling.propositions doc.labeling);
  Linalg.Vec.iteri
    (fun s p ->
      if p <> 0.0 then Buffer.add_string buf (Printf.sprintf "init %d %.17g\n" s p))
    doc.init;
  Buffer.contents buf
