type params = {
  mu : float;
  theta1 : float;
  theta2 : float;
  max_switches : int;
  rf_surprise_factor : float;
}

let default_params =
  { mu = 0.05; theta1 = 0.05; theta2 = 0.2; max_switches = 4;
    rf_surprise_factor = 4.0 }

type decision =
  | Too_cheap
  | Close_enough
  | Consider

let should_consider p ~t_opt_estimated ~t_improved ~t_optimizer =
  if t_opt_estimated > p.theta1 *. t_improved then Too_cheap
  else if
    t_optimizer <= 0.0
    || (t_improved -. t_optimizer) /. t_optimizer <= p.theta2
  then Close_enough
  else Consider

let accept_new_plan ~t_new_total ~t_improved = t_new_total < t_improved

(* A runtime filter whose observed pass rate deviates from the estimate by
   more than [rf_surprise_factor] in either direction means the join
   selectivity underlying the remaining plan is badly wrong. *)
let filter_surprise p ~est ~obs =
  let est = Float.max 1e-6 est and obs = Float.max 1e-6 obs in
  let ratio = if est > obs then est /. obs else obs /. est in
  ratio > p.rf_surprise_factor

let decision_to_string = function
  | Too_cheap -> "too-cheap (Eq. 1)"
  | Close_enough -> "close-enough (Eq. 2)"
  | Consider -> "consider"
