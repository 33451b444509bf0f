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

let cdf ~lambda n =
  if lambda = 0.0 then if n >= 0 then 1.0 else 0.0
  else begin
    let acc = Kahan.create () in
    let mode = int_of_float lambda in
    let p_mode = pmf ~lambda mode in
    (* Sum the mass at 0..n by walking from the mode in both directions;
       anchoring at the mode avoids underflow of e^-lambda. *)
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
    Float_utils.clamp_prob (Kahan.sum acc)
  end

let right_truncation_point ~lambda ~epsilon =
  if not (epsilon > 0.0 && epsilon < 1.0) then
    invalid_arg "Poisson.right_truncation_point: epsilon outside (0,1)";
  if lambda = 0.0 then 0
  else begin
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
    if Kahan.sum acc >= 1.0 -. epsilon then begin
      (* The threshold is already crossed at or below the mode: walk
         down again, taking each term off the mass at or below it, to
         the smallest k whose mass still reaches 1 - epsilon. *)
      let rec shrink k p =
        if k = 0 || not (normal p) then k
        else begin
          Kahan.add acc (-.p);
          if Kahan.sum acc >= 1.0 -. epsilon then
            shrink (k - 1) (p *. float_of_int k /. lambda)
          else k
        end
      in
      shrink mode p_mode
    end
    else begin
      (* ... then extend to the right until the target mass is reached,
         or to the last normal term when the summed mass never reaches
         1 - epsilon (epsilon below its rounding error). *)
      let rec up k p =
        if not (normal p) then k - 1
        else begin
          Kahan.add acc p;
          if Kahan.sum acc >= 1.0 -. epsilon then k
          else up (k + 1) (p *. lambda /. float_of_int (k + 1))
        end
      in
      up (mode + 1) (p_mode *. lambda /. float_of_int (mode + 1))
    end
  end
