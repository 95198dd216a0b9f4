#!/bin/sh
# Regenerates every CSV that results/MANIFEST lists, with the cmd/mobisink
# flags it gives, into a temporary directory and compares it with the
# committed file, leaving out the columns the manifest marks as
# wall-clock. Then compares each section of results/render.txt with the
# stdout of the run that wrote the section's CSV. Run it from the
# repository root: `make results-check` or `sh results/check.sh`.
set -eu
GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
$GO build -o "$tmp/mobisink" ./cmd/mobisink

# norm COLUMNS HEADER: copies stdin without the `done in` and `wrote`
# lines, with each named column of the CSV HEADER replaced by "-": by
# comma-separated position in the CSV's own rows, and by blank-separated
# position in every stdout line that has as many fields as the CSV has
# columns (the rendered table's rows). A CSV row is split at every comma,
# so a file with wall-clock columns must not quote a comma inside a
# field (figgap.csv, the only such file, quotes none).
norm() {
	awk -v cols="$1" -v hdr="$2" '
	BEGIN {
		nh = split(hdr, h, ",")
		nc = split(cols, c, ",")
		for (i = 1; i <= nc; i++)
			for (j = 1; j <= nh; j++)
				if (h[j] == c[i]) blank[j] = 1
	}
	/^\[fig .* done in / || /^wrote / { next }
	$0 == hdr { print; next }
	{
		n = split($0, f, ",")
		if (n == nh) {
			for (j in blank) f[j] = "-"
			line = f[1]
			for (j = 2; j <= n; j++) line = line "," f[j]
			print line
			next
		}
		if (NF == nh) for (j in blank) $j = "-"
		print
	}'
}

fail=0
grep -v '^#' results/MANIFEST | grep . >"$tmp/manifest"
while read -r file cols flags; do
	[ "$cols" = - ] && cols=
	start=$(date +%s)
	mkdir "$tmp/$file.d"
	# shellcheck disable=SC2086 # flags split into words on purpose
	"$tmp/mobisink" $flags -csv "$tmp/$file.d" >"$tmp/$file.out"
	hdr=$(head -n 1 "results/$file")
	norm "$cols" "$hdr" <"results/$file" >"$tmp/want"
	norm "$cols" "$hdr" <"$tmp/$file.d/$file" >"$tmp/got"
	if diff -u "$tmp/want" "$tmp/got" >"$tmp/diff"; then
		echo "results-check: $file ok ($(($(date +%s) - start)) s)"
	else
		echo "results-check: $file differs from mobisink $flags:"
		head -n 20 "$tmp/diff"
		fail=1
	fi
	echo "$cols" >"$tmp/$file.cols"
done <"$tmp/manifest"

# Split render.txt into one section per CSV, each ending at its `wrote` line.
awk -v dir="$tmp" '
	{ buf = buf $0 "\n" }
	/^wrote results\// {
		out = dir "/" substr($0, 15) ".render"
		printf "%s", buf >out
		close(out)
		buf = ""
	}' results/render.txt
for sect in "$tmp"/*.render; do
	file=$(basename "$sect" .render)
	if [ ! -f "$tmp/$file.out" ]; then
		echo "results-check: render.txt shows $file, which MANIFEST does not list"
		fail=1
		continue
	fi
	hdr=$(head -n 1 "results/$file")
	cols=$(cat "$tmp/$file.cols")
	norm "$cols" "$hdr" <"$sect" >"$tmp/want"
	norm "$cols" "$hdr" <"$tmp/$file.out" >"$tmp/got"
	if diff -u "$tmp/want" "$tmp/got" >"$tmp/diff"; then
		echo "results-check: render.txt section $file ok"
	else
		echo "results-check: render.txt section $file differs:"
		head -n 20 "$tmp/diff"
		fail=1
	fi
done
exit $fail
