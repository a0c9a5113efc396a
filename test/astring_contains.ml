(* Tiny substring-search helper shared by the test suites. *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  if nl = 0 then true
  else if nl > hl then false
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i <= hl - nl do
      if String.equal (String.sub haystack !i nl) needle then found := true
      else incr i
    done;
    !found
  end
