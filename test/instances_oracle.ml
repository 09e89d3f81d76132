(* The per-object extent evaluator [Session.instances] ran over a store
   without a one-pass evaluator, before every store's instances went
   through [View.instances_with]: it filters at each [Select] level,
   after the union below it, and pushes nothing down.  It is kept here,
   over a [Database] ([s_extent] is [Database.extent], [s_get] is
   [Database.get_attr], so each test is [Pred.eval]), as the oracle the
   walker and its leaves are held to.  A [Join] fails as the walker
   does. *)

open Tdp_core
module View = Tdp_algebra.View
module Pred = Tdp_algebra.Pred
module Database = Tdp_store.Database
module Oid = Tdp_store.Oid

let instances db expr =
  let rec go (e : View.expr) =
    match e with
    | Base n -> Database.extent db n
    | Project (e, _) -> go e
    | Select (e, p) -> List.filter (fun oid -> Pred.eval db oid p) (go e)
    | Generalize (a, b) -> List.sort_uniq Oid.compare (go a @ go b)
    | Join _ ->
        Error.raise_
          (Invariant_violation
             "join views have no identity instances; use Join.materialize")
  in
  go expr
