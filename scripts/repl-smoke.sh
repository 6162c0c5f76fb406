#!/bin/sh
# repl-smoke: boot a durable leader mviewd with -replicate and a
# follower mviewd with -follow, commit through the leader's HTTP API,
# and assert the follower converges to identical view contents and
# that replication is observable on both sides (leader status route +
# lag gauges, follower client state). Catches wiring regressions
# between the daemon flags, the /v1/replication routes, and the
# follower bootstrap that unit tests (which build their own handlers
# and transports) cannot see.
#
# Usage: scripts/repl-smoke.sh [leader-port] [follower-port]
set -eu

LPORT="${1:-18090}"
FPORT="${2:-18091}"
LEADER="http://127.0.0.1:$LPORT"
FOLLOWER="http://127.0.0.1:$FPORT"
TMP="$(mktemp -d)"
BIN="$TMP/mviewd"
LPID=""
FPID=""

cleanup() {
	[ -n "$FPID" ] && kill "$FPID" 2>/dev/null || true
	[ -n "$LPID" ] && kill "$LPID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

go build -o "$BIN" ./cmd/mviewd

"$BIN" -addr "127.0.0.1:$LPORT" -data "$TMP/leader" -group-commit -replicate &
LPID=$!

waitup() {
	i=0
	until curl -fsS "$1/debug/stats" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -ge 50 ]; then
			echo "repl-smoke: daemon did not come up on $1" >&2
			exit 1
		fi
		sleep 0.1
	done
}
waitup "$LEADER"

# Schema plus data committed BEFORE the follower exists (exercises the
# bootstrap snapshot), then more after it connects (exercises the
# stream).
curl -fsS -X POST "$LEADER/v1/relations" \
	-d '{"name":"r","attrs":["A","B"]}' >/dev/null
curl -fsS -X POST "$LEADER/v1/views" \
	-d '{"name":"v","from":["r"],"where":"A < 10"}' >/dev/null
curl -fsS -X POST "$LEADER/v1/exec" \
	-d '{"ops":[{"op":"insert","rel":"r","values":[1,2]},{"op":"insert","rel":"r","values":[50,60]}]}' >/dev/null

"$BIN" -addr "127.0.0.1:$FPORT" -follow "$LEADER" -follower-id smoke-f1 &
FPID=$!
waitup "$FOLLOWER"

curl -fsS -X POST "$LEADER/v1/exec" \
	-d '{"ops":[{"op":"insert","rel":"r","values":[3,4]},{"op":"delete","rel":"r","values":[1,2]}]}' >/dev/null

# Converge: the follower's view must become byte-identical to the
# leader's (the view ends up holding exactly [[3,4]]).
WANT="$(curl -fsS "$LEADER/v1/views/v")"
i=0
while :; do
	GOT="$(curl -fsS "$FOLLOWER/v1/views/v" 2>/dev/null || true)"
	[ "$GOT" = "$WANT" ] && [ -n "$GOT" ] && break
	i=$((i + 1))
	if [ "$i" -ge 100 ]; then
		echo "repl-smoke: follower never converged: leader=$WANT follower=$GOT" >&2
		exit 1
	fi
	sleep 0.1
done

# Writes to the follower must be refused as read-only (HTTP 403).
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$FOLLOWER/v1/exec" \
	-d '{"ops":[{"op":"insert","rel":"r","values":[9,9]}]}')"
if [ "$CODE" != "403" ]; then
	echo "repl-smoke: follower accepted a write (HTTP $CODE, want 403)" >&2
	exit 1
fi

# Policy DDL replicates: change v's refresh policy on the leader and
# the follower must converge to the same spec on its policy route. This
# is the leader's last write.
curl -fsS -X PUT "$LEADER/v1/views/v/policy" \
	-d '{"policy":"maxstale=500ms"}' >/dev/null
LAST_WRITE_MS=$(($(date +%s%N) / 1000000))
i=0
while :; do
	FPOL="$(curl -fsS "$FOLLOWER/v1/views/v/policy" 2>/dev/null || true)"
	case "$FPOL" in
	*'"maxstale=500ms"'*) break ;;
	esac
	i=$((i + 1))
	if [ "$i" -ge 100 ]; then
		echo "repl-smoke: follower never saw the policy change: $FPOL" >&2
		exit 1
	fi
	sleep 0.1
done

# Policy writes to the follower must be refused as read-only (403).
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X PUT "$FOLLOWER/v1/views/v/policy" \
	-d '{"policy":"oncommit"}')"
if [ "$CODE" != "403" ]; then
	echo "repl-smoke: follower accepted a policy write (HTTP $CODE, want 403)" >&2
	exit 1
fi

# Leader-side observability: the follower appears on the status route
# and the per-follower lag gauges render on /metrics.
STATUS="$(curl -fsS "$LEADER/v1/replication/status")"
case "$STATUS" in
*'"smoke-f1"'*) ;;
*)
	echo "repl-smoke: follower missing from leader status: $STATUS" >&2
	exit 1
	;;
esac
METRICS="$(curl -fsS "$LEADER/metrics")"
case "$METRICS" in
*'mview_repl_lag_lsn{follower="smoke-f1"}'*) ;;
*)
	echo "repl-smoke: leader /metrics lacks per-follower lag gauge" >&2
	exit 1
	;;
esac

# Coalesced acks catch up: within 1 s of the leader's last write its
# status route must show smoke-f1 acked at the leader's LSN, lag 0.
while :; do
	STATUS="$(curl -fsS "$LEADER/v1/replication/status")"
	LLSN="$(printf '%s' "$STATUS" | sed -n 's/.*"leader_lsn":\([0-9]*\).*/\1/p')"
	ACKLAG="$(printf '%s' "$STATUS" | sed -n 's/.*"id":"smoke-f1","ack_lsn":\([0-9]*\),"lag_lsn":\([0-9]*\).*/\1 \2/p')"
	[ -n "$LLSN" ] && [ "$ACKLAG" = "$LLSN 0" ] && break
	if [ $(($(date +%s%N) / 1000000 - LAST_WRITE_MS)) -gt 1000 ]; then
		echo "repl-smoke: smoke-f1 not acked at leader LSN $LLSN with lag 0 within 1 s of the last write: $STATUS" >&2
		exit 1
	fi
	sleep 0.05
done

# Follower-side observability: its /debug/stats reports the client
# streaming with zero lag.
FSTATS="$(curl -fsS "$FOLLOWER/debug/stats")"
case "$FSTATS" in
*'"replication_client"'*'"state":"streaming"'*) ;;
*)
	echo "repl-smoke: follower /debug/stats lacks streaming client state: $FSTATS" >&2
	exit 1
	;;
esac

echo "repl-smoke: OK (follower converged, writes and policy changes refused with 403, policy DDL replicated, lag gauges live, acks caught up)"
