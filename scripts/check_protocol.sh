#!/bin/sh
# Golden transcripts for the `odb serve` line protocol (docs/server.md).
#
# Starts a server on a throwaway store, drives it through `odb connect`,
# and diffs the responses against pinned transcripts — the wire protocol
# is a compatibility surface, so any drift must be a conscious choice.
# One transcript pins served `eval` output (selections with and/or/not,
# projections, method calls) outside and inside a transaction, and one
# the served view DDL (define, read back, drop, re-define, duplicate).
# A two-client race checks the conflict path (prefix-matched: the
# loser's message embeds version numbers), a SIGTERM with an idle
# client connected checks the server exits 0 within 2 s, and a kill -9
# right after an acknowledged commit checks that a restarted server
# still has it.  A last step runs `odb store` and `odb serve` on one
# directory: `odb store` is refused while a server holds it, sees the
# served commits, and its appends and the served commits replay in
# write order.
#
# Usage: scripts/check_protocol.sh   (run from the repository root)
set -eu

ODB=_build/default/bin/odb.exe
[ -x "$ODB" ] || dune build bin/odb.exe

tmp=$(mktemp -d)
server_pid=
a_pid=
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  [ -n "$a_pid" ] && kill "$a_pid" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

"$ODB" store init "$tmp/db" --schema examples/schemas/employee.odb >/dev/null
store=$tmp/db

# start_server [FLAG...] — serve $store on $tmp/odb.sock, wait for it
start_server() {
  rm -f "$tmp/odb.sock"
  "$ODB" serve "$store" --socket "$tmp/odb.sock" "$@" >/dev/null &
  server_pid=$!
  i=0
  until [ -S "$tmp/odb.sock" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "check_protocol: server never came up" >&2; exit 1; }
    sleep 0.1
  done
}

start_server --no-sync

status=0
transcript() {
  name=$1
  got=$("$ODB" connect "$tmp/odb.sock" <"$tmp/in.txt")
  if [ "$got" = "$(cat "$tmp/want.txt")" ]; then
    echo "check_protocol: $name OK"
  else
    echo "check_protocol: $name FAILED" >&2
    diff -u "$tmp/want.txt" - <<EOF >&2 || true
$got
EOF
    status=1
  fi
}

# -- 1: session basics — begin/stage/read-your-writes/commit ----------
cat >"$tmp/in.txt" <<'EOF'
hello
ping
begin
new Employee ssn=1 name="alice" pay_rate=12.5
get #1 name
commit
typeof #1
count
version
branches
quit
EOF
cat >"$tmp/want.txt" <<'EOF'
ok odb 1 branch main
ok pong
ok txn 1 base 0
ok #1
ok "alice"
ok committed 1
ok Employee
ok 1
ok 1
ok main:1
ok bye
EOF
transcript "session basics"

# -- 2: errors leave the session usable; abort discards staging -------
cat >"$tmp/in.txt" <<'EOF'
set #1 ssn=9
begin
set #1 ssn=9
abort
get #1 ssn
quit
EOF
cat >"$tmp/want.txt" <<'EOF'
err "no open transaction (begin first)"
ok txn 2 base 1
ok
ok aborted
ok 1
ok bye
EOF
transcript "errors and abort"

# -- 3: branches are independent lines of versions --------------------
cat >"$tmp/in.txt" <<'EOF'
fork dev
branch dev
begin
set #1 pay_rate=99.0
commit
get #1 pay_rate
branch main
get #1 pay_rate
quit
EOF
cat >"$tmp/want.txt" <<'EOF'
ok forked dev at 1
ok branch dev
ok txn 3 base 1
ok
ok committed 2
ok 99.0
ok branch main
ok 12.5
ok bye
EOF
transcript "branch fork and isolation"

# -- 4: served eval — selections, a projection and calls, read from one
#    snapshot outside a transaction and from the overlay inside one -----
cat >"$tmp/in.txt" <<'EOF'
begin
new Employee ssn=2 name="bob" pay_rate=30.0 hrs_worked=10.0
new Person ssn=3 name="cy"
commit
eval ":extent select Employee where ssn < 3 and not (pay_rate > 20.0) or ssn == 2"
eval ":extent project (select Person where ssn != 1 or name == \"alice\") on [ssn, name]"
eval "call income on select Employee where ssn == 2;"
begin
set #2 pay_rate=40.0
eval ":extent select Employee where (pay_rate >= 40.0 or ssn == 1) and not (name == \"x\")"
eval "set #2 { hrs_worked = 5.0 }; call income on select Employee where ssn == 2;"
eval ":extent project (select Person where not (ssn == 2)) on [name]"
abort
eval "call income on select Employee where ssn == 2;"
quit
EOF
cat >"$tmp/want.txt" <<'EOF'
ok txn 4 base 1
ok #2
ok #3
ok committed 3
ok "extent: 2\n#1 {pay_rate = 12.5; hrs_worked = null; ssn = 1; name = \"alice\"; date_of_birth = null}\n#2 {pay_rate = 30; hrs_worked = 10; ssn = 2; name = \"bob\"; date_of_birth = null}"
ok "extent: 3\n#1 {ssn = 1; name = \"alice\"}\n#2 {ssn = 2; name = \"bob\"}\n#3 {ssn = 3; name = \"cy\"}"
ok "income(#2) = 300"
ok txn 5 base 3
ok
ok "extent: 2\n#1 {pay_rate = 12.5; hrs_worked = null; ssn = 1; name = \"alice\"; date_of_birth = null}\n#2 {pay_rate = 40; hrs_worked = 10; ssn = 2; name = \"bob\"; date_of_birth = null}"
ok "updated #2 (hrs_worked)\nincome(#2) = 200"
ok "extent: 2\n#1 {name = \"alice\"}\n#3 {name = \"cy\"}"
ok aborted
ok "income(#2) = 300"
ok bye
EOF
transcript "served eval"

# -- 4b: served view DDL — define a projection that factors surrogates
#    out of Person, read it back, drop it, re-define the same name, and
#    hit the duplicate-name diagnostic -----------------------------------
cat >"$tmp/in.txt" <<'EOF'
eval "define view Pay = project Employee on [ssn, pay_rate];"
eval ":type Pay"
eval ":extent project Employee on [ssn, pay_rate]"
eval "drop view Pay;"
eval "define view Pay = project Employee on [name];"
eval ":extent Pay"
eval "define view Pay = project Employee on [ssn];"
eval "drop view Pay;"
quit
EOF
cat >"$tmp/want.txt" <<'EOF'
ok "view Pay = project Employee on [ssn, pay_rate]"
ok "view it : exactly {pay_rate, ssn}\n source Employee requires {pay_rate, ssn}"
ok "extent: 2\n#1 {ssn = 1; pay_rate = 12.5}\n#2 {ssn = 2; pay_rate = 30}"
ok "dropped view Pay"
ok "view Pay = project Employee on [name]"
ok "extent: 2\n#1 {name = \"alice\"}\n#2 {name = \"bob\"}"
err "1:1: error[TDP052]: view or binding Pay is already defined"
ok "dropped view Pay"
ok bye
EOF
transcript "served view DDL"

# -- 5: two clients race one slot — exactly one wins ------------------
mkfifo "$tmp/a.in"
"$ODB" connect "$tmp/odb.sock" <"$tmp/a.in" >"$tmp/a.out" &
a_pid=$!
exec 3>"$tmp/a.in"
printf 'begin\nset #1 ssn=100\n' >&3
sleep 0.3
b_out=$("$ODB" connect "$tmp/odb.sock" <<'EOF'
begin
set #1 ssn=200
commit
quit
EOF
)
printf 'commit\nquit\n' >&3
exec 3>&-
wait "$a_pid" || true
a_pid=
a_commit=$(sed -n '3p' "$tmp/a.out")
b_commit=$(printf '%s\n' "$b_out" | sed -n '3p')
case "$b_commit" in
  "ok committed"*) : ;;
  *) echo "check_protocol: race winner FAILED: $b_commit" >&2; status=1 ;;
esac
case "$a_commit" in
  conflict*) echo "check_protocol: conflict race OK ($a_commit)" ;;
  *) echo "check_protocol: race loser FAILED: $a_commit" >&2; status=1 ;;
esac

# -- 6: SIGTERM with an idle client connected — exit 0 within 2 s -----
mkfifo "$tmp/idle.in"
"$ODB" connect "$tmp/odb.sock" <"$tmp/idle.in" >/dev/null &
a_pid=$!
exec 3>"$tmp/idle.in"
printf 'ping\n' >&3
sleep 0.3
kill "$server_pid"
# a watchdog SIGKILLs a server that outlives the deadline: exit 137
( sleep 2; kill -9 "$server_pid" 2>/dev/null ) &
watchdog=$!
rc=0
wait "$server_pid" || rc=$?
server_pid=
kill "$watchdog" 2>/dev/null || true
exec 3>&-
wait "$a_pid" 2>/dev/null || true
a_pid=
if [ "$rc" -eq 0 ]; then
  echo "check_protocol: SIGTERM with an idle client OK"
else
  echo "check_protocol: SIGTERM with an idle client FAILED (exit $rc; 137 = still running after 2 s)" >&2
  status=1
fi

# -- 7: kill -9 after "ok committed" — a restart still has the commit -
start_server
got=$("$ODB" connect "$tmp/odb.sock" <<'EOF'
begin
set #1 name="durable"
commit
quit
EOF
)
committed=$(printf '%s\n' "$got" | sed -n '3p')
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=
case "$committed" in
  "ok committed "*) : ;;
  *) echo "check_protocol: commit before kill -9 FAILED: $committed" >&2; status=1 ;;
esac
start_server
printf 'get #1 name\nversion\nquit\n' >"$tmp/in.txt"
printf 'ok "durable"\nok %s\nok bye\n' "${committed#ok committed }" >"$tmp/want.txt"
transcript "commit survives kill -9 and restart"

# -- 8: one log — odb store and odb serve on one directory ------------
stop_server() {
  kill "$server_pid"
  wait "$server_pid" 2>/dev/null || true
  server_pid=
}
# check NAME WANT GOT — compare one command's output
check() {
  if [ "$3" = "$2" ]; then
    echo "check_protocol: $1 OK"
  else
    echo "check_protocol: $1 FAILED" >&2
    printf 'want: %s\ngot:  %s\n' "$2" "$3" >&2
    status=1
  fi
}
stop_server
"$ODB" store init "$tmp/one" --schema examples/schemas/employee.odb >/dev/null
store=$tmp/one
start_server
cat >"$tmp/in.txt" <<'EOF'
begin
new Employee ssn=1 name="alice"
commit
begin
set #1 pay_rate=20.0
commit
quit
EOF
cat >"$tmp/want.txt" <<'EOF'
ok txn 1 base 0
ok #1
ok committed 1
ok txn 2 base 1
ok
ok committed 2
ok bye
EOF
transcript "one log: two served commits"
# one writer per directory: while the server holds it, odb store
# refuses to write and appends nothing
printf 'new #2 Employee ssn=2 name="bob"\n' >"$tmp/bob.ops"
cp "$store/txn.log" "$tmp/txn.before"
rc=0
"$ODB" store append "$store" --script "$tmp/bob.ops" >/dev/null 2>"$tmp/err.txt" || rc=$?
check "one log: append refused while served" \
  "2 error: store $store is in use by another process ($store/txn.log is locked)" \
  "$rc $(cat "$tmp/err.txt")"
rc=0
"$ODB" store checkpoint "$store" >/dev/null 2>"$tmp/err.txt" || rc=$?
check "one log: checkpoint refused while served" "2 in use" \
  "$rc $(grep -o 'in use' "$tmp/err.txt")"
if cmp -s "$tmp/txn.before" "$store/txn.log"; then
  echo "check_protocol: one log: refused writers left txn.log alone OK"
else
  echo "check_protocol: one log: refused writers left txn.log alone FAILED" >&2
  status=1
fi
stop_server
check "one log: store dump shows the served commits" \
  'obj #1 Employee date_of_birth=null hrs_worked=null name="alice" pay_rate=20.0 ssn=1' \
  "$("$ODB" store dump "$store" 2>&1)"
# an append over a served oid is refused, not logged over it
printf 'new #1 Employee ssn=2 name="bob"\n' >"$tmp/shadow.ops"
rc=0
"$ODB" store append "$store" --script "$tmp/shadow.ops" >/dev/null 2>"$tmp/err.txt" || rc=$?
check "one log: append over a served oid refused" \
  "2 error: oid #1 already in use" "$rc $(cat "$tmp/err.txt")"
check "one log: append" \
  "applied 1 operation(s); 2 object(s), txn.log at seq 9" \
  "$("$ODB" store append "$store" --script "$tmp/bob.ops" 2>&1)"
# write order across the writers: served 1.0, then appended 2.0
start_server
printf 'begin\nset #1 pay_rate=1.0\ncommit\nquit\n' | "$ODB" connect "$tmp/odb.sock" >/dev/null
stop_server
printf 'set #1 pay_rate=2.0\n' >"$tmp/pay.ops"
"$ODB" store append "$store" --script "$tmp/pay.ops" >/dev/null 2>&1 || true
start_server
printf 'count\nget #1 name\nget #1 pay_rate\nget #2 name\nquit\n' >"$tmp/in.txt"
printf 'ok 2\nok "alice"\nok 2.0\nok "bob"\nok bye\n' >"$tmp/want.txt"
transcript "one log: a restart replays served and appended commits in write order"
stop_server
check "one log: store dump after the restart" \
  'obj #1 Employee date_of_birth=null hrs_worked=null name="alice" pay_rate=2.0 ssn=1
obj #2 Employee date_of_birth=null hrs_worked=null name="bob" pay_rate=null ssn=2' \
  "$("$ODB" store dump "$store" 2>&1)"

[ "$status" -eq 0 ] && echo "check_protocol: all transcripts match"
exit "$status"
