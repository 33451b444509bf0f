(* Tests for the CSRL syntax: lexer, parser, pretty-printer, helpers. *)

open Logic

let formula = Alcotest.testable Ast.pp Ast.equal

let parse = Parser.state_formula

let test_lexer () =
  let tokens text = List.map fst (Lexer.tokenize text) in
  Alcotest.(check bool) "keywords" true
    (tokens "true false P S X U F G"
     = [ Lexer.TRUE; FALSE; PROB; STEADY; NEXT; UNTIL; EVENTUALLY; GLOBALLY;
         EOF ]);
  Alcotest.(check bool) "symbols" true
    (tokens "! & | -> ( ) [ ] <= < >= > =?"
     = [ Lexer.BANG; AMP; BAR; ARROW; LPAREN; RPAREN; LBRACKET; RBRACKET;
         LE; LT; GE; GT; QUERY; EOF ]);
  (match tokens "foo_bar1 0.5 2e-3" with
   | [ Lexer.IDENT "foo_bar1"; NUMBER a; NUMBER b; EOF ] ->
     Alcotest.(check (float 1e-12)) "number" 0.5 a;
     Alcotest.(check (float 1e-12)) "exponent" 2e-3 b
   | _ -> Alcotest.fail "bad identifier/number lexing");
  (try
     ignore (Lexer.tokenize "a @ b");
     Alcotest.fail "accepted '@'"
   with Lexer.Error (_, pos) -> Alcotest.(check int) "error position" 2 pos)

let test_parse_boolean () =
  Alcotest.check formula "atoms" (Ast.Ap "a") (parse "a");
  Alcotest.check formula "true" Ast.True (parse "true");
  Alcotest.check formula "precedence and over or"
    (Ast.Or (Ast.Ap "a", Ast.And (Ast.Ap "b", Ast.Ap "c")))
    (parse "a | b & c");
  Alcotest.check formula "negation binds tight"
    (Ast.Or (Ast.Not (Ast.Ap "a"), Ast.Ap "b"))
    (parse "!a | b");
  Alcotest.check formula "parens"
    (Ast.And (Ast.Or (Ast.Ap "a", Ast.Ap "b"), Ast.Ap "c"))
    (parse "(a | b) & c");
  Alcotest.check formula "implication right assoc"
    (Ast.Implies (Ast.Ap "a", Ast.Implies (Ast.Ap "b", Ast.Ap "c")))
    (parse "a -> b -> c");
  Alcotest.check formula "or left assoc"
    (Ast.Or (Ast.Or (Ast.Ap "a", Ast.Ap "b"), Ast.Ap "c"))
    (parse "a | b | c")

let upto = Numerics.Time_interval.upto
let unb = Numerics.Time_interval.unbounded

let test_parse_probabilistic () =
  Alcotest.check formula "until with both bounds"
    (Ast.Prob
       (Ast.Gt, 0.5,
        Ast.Until
          (upto 24.0, upto 600.0,
           Ast.Or (Ast.Ap "call_idle", Ast.Ap "doze"),
           Ast.Ap "call_initiated")))
    (parse "P>0.5 ( (call_idle | doze) U[t<=24][r<=600] call_initiated )");
  Alcotest.check formula "eventually reward bound (Q1)"
    (Ast.Prob
       (Ast.Gt, 0.5,
        Ast.Until (unb, upto 600.0, Ast.True, Ast.Ap "call_incoming")))
    (parse "P>0.5 ( F[r<=600] call_incoming )");
  Alcotest.check formula "csl-style shorthand"
    (Ast.Prob
       (Ast.Ge, 0.9, Ast.Until (upto 2.0, unb, Ast.Ap "a", Ast.Ap "b")))
    (parse "P>=0.9 ( a U<=2 b )");
  Alcotest.check formula "next with bounds"
    (Ast.Prob (Ast.Lt, 0.1, Ast.Next (upto 1.0, upto 2.0, Ast.Ap "a")))
    (parse "P<0.1 ( X[t<=1][r<=2] a )");
  Alcotest.check formula "bounds in either order"
    (parse "P<0.1 ( X[t<=1][r<=2] a )")
    (parse "P<0.1 ( X[r<=2][t<=1] a )");
  Alcotest.check formula "steady"
    (Ast.Steady (Ast.Ge, 0.99, Ast.Ap "up"))
    (parse "S>=0.99 ( up )");
  (* G is dualised: P>=0.9 (G a) = P<=0.1 (F !a). *)
  Alcotest.check formula "globally dualised"
    (Ast.Prob
       (Ast.Le, 0.09999999999999998,
        Ast.Until (unb, unb, Ast.True, Ast.Not (Ast.Ap "a"))))
    (parse "P>=0.9 ( G a )")

let test_parse_queries () =
  (match Parser.query "P=? ( a U[t<=5] b )" with
   | Ast.Prob_query (Ast.Until (i, j, Ast.Ap "a", Ast.Ap "b")) ->
     Alcotest.(check bool) "time bound" true (Numerics.Time_interval.equal i (upto 5.0));
     Alcotest.(check bool) "no reward bound" true (Numerics.Time_interval.equal j unb)
   | _ -> Alcotest.fail "bad P=? parse");
  (match Parser.query "S=? ( up )" with
   | Ast.Steady_query (Ast.Ap "up") -> ()
   | _ -> Alcotest.fail "bad S=? parse");
  (match Parser.query "a & b" with
   | Ast.Formula (Ast.And (Ast.Ap "a", Ast.Ap "b")) -> ()
   | _ -> Alcotest.fail "bad plain-formula query")

let expect_error text =
  match parse text with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.failf "accepted %S" text

let test_parse_errors () =
  expect_error "";
  expect_error "a |";
  expect_error "P>0.5 ( a )";          (* state formula where path expected *)
  expect_error "P ( X a )";            (* missing comparison *)
  expect_error "a U[t<=1][t<=2] b";    (* duplicate time bound *)
  expect_error "P>0.5 ( a U[x<=1] b )";(* bad bound prefix *)
  expect_error "a b";                  (* trailing input *)
  expect_error "P>0.5 ( a U b ";       (* unclosed paren *)
  (match Parser.query "P=? ( G a )" with
   | exception Parser.Parse_error _ -> ()
   | _ -> Alcotest.fail "accepted G in quantitative query")

let test_helpers () =
  Alcotest.(check bool) "compare Ge" true (Ast.compare_holds Ast.Ge 0.5 0.5);
  Alcotest.(check bool) "compare Gt" false (Ast.compare_holds Ast.Gt 0.5 0.5);
  Alcotest.(check bool) "compare Lt" true (Ast.compare_holds Ast.Lt 0.5 0.4);
  Alcotest.(check bool) "compare Le" true (Ast.compare_holds Ast.Le 0.5 0.5);
  Alcotest.(check bool) "negate" true
    (Ast.negate_comparison Ast.Lt = Ast.Ge
     && Ast.negate_comparison Ast.Ge = Ast.Lt
     && Ast.negate_comparison Ast.Le = Ast.Gt
     && Ast.negate_comparison Ast.Gt = Ast.Le);
  Alcotest.(check bool) "dual" true
    (Ast.dual_comparison Ast.Lt = Ast.Gt && Ast.dual_comparison Ast.Le = Ast.Ge);
  Alcotest.(check (list string)) "atomic propositions" [ "a"; "b"; "c" ]
    (Ast.atomic_propositions
       (parse "P>0.5 ( (a | b) U[t<=1] c ) & a"));
  Alcotest.(check bool) "size grows" true
    (Ast.size (parse "a & b") > Ast.size (parse "a"));
  (match Ast.eventually (Ast.Ap "x") with
   | Ast.Until (i, j, Ast.True, Ast.Ap "x") ->
     Alcotest.(check bool) "eventually unbounded" true
       (Numerics.Time_interval.equal i unb && Numerics.Time_interval.equal j unb)
   | _ -> Alcotest.fail "eventually shape")

(* ---------------- round-trip property ------------------------------ *)

(* Probabilities and bounds are arbitrary finite floats: thresholds
   anywhere in [0, 1], bounds at every magnitude from 2^-30 to 2^31,
   most of them needing all 17 significant digits to read back. *)
let gen_formula =
  let open QCheck2.Gen in
  let gen_bound =
    map2
      (fun m e -> Float.ldexp (1.0 +. m) e)
      (float_range 0.0 1.0) (int_range (-30) 30)
  in
  let gen_interval =
    oneof
      [ return unb;
        map upto gen_bound;
        map Numerics.Time_interval.from gen_bound;
        map2
          (fun a len -> Numerics.Time_interval.between a (a +. len))
          gen_bound gen_bound ]
  in
  let gen_cmp = oneofl [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] in
  let gen_prob = float_range 0.0 1.0 in
  let gen_ap = map (fun c -> Ast.Ap (Printf.sprintf "p%d" c)) (int_range 0 5) in
  fix
    (fun self depth ->
      if depth = 0 then oneof [ gen_ap; return Ast.True; return Ast.False ]
      else
        oneof
          [ gen_ap;
            map (fun f -> Ast.Not f) (self (depth - 1));
            map2 (fun f g -> Ast.And (f, g)) (self (depth - 1)) (self (depth - 1));
            map2 (fun f g -> Ast.Or (f, g)) (self (depth - 1)) (self (depth - 1));
            map2
              (fun f g -> Ast.Implies (f, g))
              (self (depth - 1))
              (self (depth - 1));
            map3
              (fun cmp p f -> Ast.Steady (cmp, p, f))
              gen_cmp gen_prob (self (depth - 1));
            (let* cmp = gen_cmp in
             let* p = gen_prob in
             let* i = gen_interval in
             let* j = gen_interval in
             let* inner = self (depth - 1) in
             oneof
               [ return (Ast.Prob (cmp, p, Ast.Next (i, j, inner)));
                 map
                   (fun g -> Ast.Prob (cmp, p, Ast.Until (i, j, inner, g)))
                   (self (depth - 1)) ]) ])
    3

let prop_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"parse (print f) = f"
    ~print:Ast.to_string gen_formula (fun f ->
      Ast.equal f (Parser.state_formula (Ast.to_string f)))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "logic",
    [ Alcotest.test_case "lexer" `Quick test_lexer;
      Alcotest.test_case "boolean layer" `Quick test_parse_boolean;
      Alcotest.test_case "probabilistic operators" `Quick
        test_parse_probabilistic;
      Alcotest.test_case "queries" `Quick test_parse_queries;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "helpers" `Quick test_helpers;
      q prop_roundtrip ] )
