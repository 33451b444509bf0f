let log_pmf ~lambda n =
  if lambda < 0.0 then invalid_arg "Poisson.log_pmf: negative lambda";
  if n < 0 then invalid_arg "Poisson.log_pmf: negative n";
  if lambda = 0.0 then if n = 0 then 0.0 else Float.neg_infinity
  else
    (float_of_int n *. Float.log lambda) -. lambda -. Special.log_factorial n

let pmf ~lambda n = Float.exp (log_pmf ~lambda n)

(* The walks below stop at their first subnormal term.  Past it the
   terms carry no mass a sum near the mode can register, and a subnormal
   times a ratio near 1 rounds back to itself, so a walk waiting for an
   exact 0 ran on until the ratio fell below 1/2 (towards lambda / 2 on
   the way down, 2 lambda on the way up). *)
let normal p = p >= Float.min_float

(* The Kahan-summed mass at 0..n, unclamped: the walks start at the mode
   and go down, then up, each to its first subnormal term; anchoring at
   the mode avoids underflow of e^-lambda. *)
let mass_upto ~lambda n =
  let acc = Kahan.create () in
  let mode = int_of_float lambda in
  let p_mode = pmf ~lambda mode in
  let rec down k p =
    if k >= 0 && normal p then begin
      if k <= n then Kahan.add acc p;
      down (k - 1) (p *. float_of_int k /. lambda)
    end
  in
  let rec up k p =
    if k <= n && normal p then begin
      Kahan.add acc p;
      up (k + 1) (p *. lambda /. float_of_int (k + 1))
    end
  in
  down mode p_mode;
  if mode < n then up (mode + 1) (p_mode *. lambda /. float_of_int (mode + 1));
  Kahan.sum acc

let cdf ~lambda n =
  if lambda = 0.0 then if n >= 0 then 1.0 else 0.0
  else Float_utils.clamp_prob (mass_upto ~lambda n)

let right_truncation_point ~lambda ~epsilon =
  if not (epsilon > 0.0 && epsilon < 1.0) then
    invalid_arg "Poisson.right_truncation_point: epsilon outside (0,1)";
  if lambda = 0.0 then 0
  else begin
    (* The computed terms carry rounding: at lambda = 117 they sum to
       1 - 9.7e-14, so 1 - epsilon is out of reach for any epsilon below
       that.  Normalising by the summed mass, as Fox-Glynn's W does,
       asks for the fraction 1 - epsilon of what is there.  The target
       never exceeds the mass, which the walks below reach bit for bit:
       they add the same terms in the same order. *)
    let target = (1.0 -. epsilon) *. mass_upto ~lambda max_int in
    let acc = Kahan.create () in
    let mode = int_of_float lambda in
    let p_mode = pmf ~lambda mode in
    (* Every walk starts at the mode (e^-lambda underflows for lambda
       above ~745) and stops where its term leaves the normal range: no
       later term can move the sum.  Accumulate all mass at or below the
       mode first ... *)
    let rec down k p =
      if k >= 0 && normal p then begin
        Kahan.add acc p;
        down (k - 1) (p *. float_of_int k /. lambda)
      end
    in
    down mode p_mode;
    if Kahan.sum acc >= target then begin
      (* The threshold is already crossed at or below the mode: walk
         down again, taking each term off the mass at or below it, to
         the smallest k whose mass still reaches the target. *)
      let rec shrink k p =
        if k = 0 || not (normal p) then k
        else begin
          Kahan.add acc (-.p);
          if Kahan.sum acc >= target then
            shrink (k - 1) (p *. float_of_int k /. lambda)
          else k
        end
      in
      shrink mode p_mode
    end
    else begin
      (* ... then extend to the right until the target is reached. *)
      let rec up k p =
        if not (normal p) then k - 1
        else begin
          Kahan.add acc p;
          if Kahan.sum acc >= target then k
          else up (k + 1) (p *. lambda /. float_of_int (k + 1))
        end
      in
      up (mode + 1) (p_mode *. lambda /. float_of_int (mode + 1))
    end
  end
