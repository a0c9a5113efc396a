(* Engines at an exact domain count. [Engine.create ~domains] clamps the
   request to the host's cores, which would turn a 4-domain test on a
   2-core runner into a 2-domain one; an explicit pool is never
   clamped. [domains = 1] is the sequential engine (no pool at all). *)

module Task_pool = Vadasa_base.Task_pool
module V = Vadasa_vadalog

let with_engine ?(domains = 1) program f =
  if domains = 1 then f (V.Engine.create program)
  else
    let pool = Task_pool.create ~domains () in
    Fun.protect
      ~finally:(fun () -> Task_pool.stop pool)
      (fun () -> f (V.Engine.create ~pool program))
