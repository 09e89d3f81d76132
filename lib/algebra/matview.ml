open Tdp_core
module Database = Tdp_store.Database
module Oid = Tdp_store.Oid

(* Maintained materialized views.

   [View.materialize] takes a one-shot copy; this module keeps the copy
   population in sync with the base data on demand: [refresh] diffs the
   view's current instance set against the copies (tracked by a
   source-OID → copy-OID mapping) and adds, removes, or updates copies
   as needed — the classic deferred view-maintenance loop, built on the
   identity-based instance semantics of projection views.

   Refresh is incremental over the store's logical clock: the view
   remembers the tick of its last refresh, and a tracked (source, copy)
   pair whose row stamps are both at or below it cannot have diverged —
   the attribute diff is skipped entirely.  The membership pass still
   runs (instance sets can change through other rows), but the per-row
   work drops from every-attribute-twice to two stamp reads on clean
   rows. *)

module Obs = Tdp_obs
let m_refresh_ns = Obs.Metrics.histogram "matview.refresh_ns"
let c_rows_skipped = Obs.Metrics.counter "matview.rows_skipped"
let c_rows_checked = Obs.Metrics.counter "matview.rows_checked"

type stats = { added : int; removed : int; updated : int }

let no_change = { added = 0; removed = 0; updated = 0 }

type t = {
  view_type : Type_name.t;
  expr : View.expr;
  mutable mapping : Oid.t Oid.Map.t;  (** source → copy *)
  mutable last_tick : int;  (** store tick of the last refresh *)
}

let view_type t = t.view_type
let mapping t = t.mapping

let copy_attrs db view_type =
  Hierarchy.all_attribute_names (Database.hierarchy db) view_type

let refresh ?(force = false) db t =
  Obs.Metrics.time m_refresh_ns (fun () ->
      let attrs = copy_attrs db t.view_type in
      let current = View.instances db t.expr in
      let current_set = Oid.Set.of_list current in
      (* remove copies of vanished sources *)
      let removed = ref 0 in
      let mapping =
        Oid.Map.filter
          (fun src copy ->
            if Oid.Set.mem src current_set then true
            else begin
              Database.delete db ~policy:Database.Nullify copy;
              incr removed;
              false
            end)
          t.mapping
      in
      (* add copies for new sources, update stale ones *)
      let added = ref 0 and updated = ref 0 in
      let mapping =
        List.fold_left
          (fun mapping src ->
            match Oid.Map.find_opt src mapping with
            | None ->
                let init =
                  List.combine attrs (Database.get_attrs db src attrs)
                in
                let copy = Database.new_object db t.view_type ~init in
                incr added;
                Oid.Map.add src copy mapping
            | Some copy ->
                if
                  (not force)
                  && Database.row_stamp db src <= t.last_tick
                  && Database.row_stamp db copy <= t.last_tick
                then Obs.Metrics.incr c_rows_skipped
                else begin
                  Obs.Metrics.incr c_rows_checked;
                  (* one batch read per side, then diff — not a
                     get_attr pair per attribute *)
                  let src_vals = Database.get_attrs db src attrs in
                  let copy_vals = Database.get_attrs db copy attrs in
                  let changed = ref false in
                  let rec diff al sl cl =
                    match (al, sl, cl) with
                    | [], [], [] -> ()
                    | a :: al, s :: sl, c :: cl ->
                        if not (Tdp_store.Value.equal s c) then begin
                          Database.set_attr db copy a s;
                          changed := true
                        end;
                        diff al sl cl
                    | _ ->
                        (* get_attrs returns one value per requested
                           attr; a length mismatch means the store
                           broke that contract *)
                        raise
                          (Database.Store_error
                             (Fmt.str
                                "matview refresh: %d attributes but %d source \
                                 / %d copy values for #%d -> #%d"
                                (List.length attrs) (List.length src_vals)
                                (List.length copy_vals)
                                (Tdp_store.Oid.to_int src)
                                (Tdp_store.Oid.to_int copy)))
                  in
                  diff attrs src_vals copy_vals;
                  if !changed then incr updated
                end;
                mapping)
          mapping current
      in
      t.mapping <- mapping;
      (* every copy now agrees with its source as of this instant *)
      t.last_tick <- Database.tick db;
      { added = !added; removed = !removed; updated = !updated })

let create db ~view_type expr =
  let t = { view_type; expr; mapping = Oid.Map.empty; last_tick = 0 } in
  let _ = refresh db t in
  t

let copies t = List.map snd (Oid.Map.bindings t.mapping)
