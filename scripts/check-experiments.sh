#!/usr/bin/env bash
# Regenerates every experiment with `pagodabench -exp all` at its default
# flags and checks each result block against EXPERIMENTS.md. A block starts
# at its "== ID: ... ==" header line and ends at the closing code fence (in
# EXPERIMENTS.md) or at the next header (in the program's output). Trailing
# spaces and trailing blank lines are ignored, since the text renderer pads
# its last column. Any other difference, or a block present on only one
# side, fails. Run from the repository root:
#
#   bash scripts/check-experiments.sh [extra pagodabench flags]
set -euo pipefail

go="${GO:-go}"
work="$(mktemp -d)" # under $TMPDIR when set
trap 'rm -rf "$work"' EXIT

"$go" build -o "$work/pagodabench" ./cmd/pagodabench
"$work/pagodabench" -exp all "$@" > "$work/out.txt"

# blocks FILE DIR writes each result block of FILE to DIR/<ID>.
blocks() {
	mkdir -p "$2"
	awk -v dir="$2" '
		{ sub(/[ \t]+$/, "") }
		/^== [A-Z0-9_]+: / {
			id = $2; sub(/:$/, "", id); out = dir "/" id
			inblk = 1; blanks = 0
			print > out; next
		}
		/^```/ { inblk = 0; next }
		!inblk { next }
		/^$/ { blanks++; next }
		{ for (; blanks > 0; blanks--) print "" > out; print > out }
	' "$1"
}
blocks EXPERIMENTS.md "$work/doc"
blocks "$work/out.txt" "$work/run"

n="$(ls "$work/run" | wc -l)"
if ! diff -r "$work/doc" "$work/run"; then
	echo "experiments: the output of pagodabench -exp all differs from EXPERIMENTS.md (diff above: < doc, > run)" >&2
	exit 1
fi
echo "experiments: all $n result blocks match EXPERIMENTS.md"
