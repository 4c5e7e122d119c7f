#!/usr/bin/env bash
# The checks that only a real `ncdm` process can make. They run whatever `ncdm`
# is first on PATH, in the directory the script is started in:
#   bash tests/installed_cli.sh
# Each kept check, and why it needs a process of its own:
# - every command: it goes through the installed `ncdm` entry point, which the
#   in-process tests never call;
# - --jobs 1 against --jobs 2 for matrix, multiset, loocv and partition (cmp),
#   and gen-synthetic twice with one seed (diff -r): each process draws its own
#   hash seed, so output that follows set or dict order differs between them;
# - gen-synthetic (x3), then quantize --save-config and quantize --config: the
#   cell pipeline that feeds loocv and partition, each step reading the files
#   of the one before;
# - `matrix | head -c 1` exits 1 with `error: stdout was closed`: only a real
#   pipe is closed by its reader;
# - --jobs 0 exits 2 and an unreadable input exits 1, each with its error
#   message and no traceback: the status the shell sees, not the one `main`
#   returns.
set -euo pipefail

# refuse STATUS MESSAGE COMMAND...: COMMAND exits STATUS, and its stderr starts
# with MESSAGE and holds no traceback.
refuse() {
    local want=$1 message=$2 status=0
    shift 2
    "$@" > refused.out 2> refused.err || status=$?
    if [[ $status -ne $want || $(< refused.err) != "$message"* ]] || grep -q Traceback refused.err; then
        echo "expected exit $want and '$message...' from: $*; got exit $status:" >&2
        cat refused.err >&2
        exit 1
    fi
}

# same_bytes SUBCOMMAND ARGS...: `ncdm` prints one report at --jobs 1 and 2.
same_bytes() {
    ncdm "$@" --jobs 1 > jobs1.json
    ncdm "$@" --jobs 2 > jobs2.json
    grep -q "\"command\": \"$1\"" jobs1.json
    cmp jobs1.json jobs2.json
}

printf 'alpha beta gamma alpha beta gamma' > a.txt
printf 'alpha beta delta alpha beta delta' > b.txt
printf 'gamma delta gamma delta gamma delta' > c.txt
same_bytes matrix a.txt b.txt c.txt
same_bytes multiset a.txt b.txt c.txt
grep -q '"formula": "heuristic"' jobs1.json

ncdm gen-synthetic --upsilon 3.0 --cells 6 --seed 1 --out tracks/fast > /dev/null
ncdm gen-synthetic --upsilon 3.0 --cells 6 --seed 1 --out again/fast > /dev/null
diff -r tracks/fast again/fast
ncdm gen-synthetic --upsilon 0.9 --cells 6 --seed 2 --out tracks/slow > /dev/null
ncdm quantize tracks/fast --symbols 4 --out classes/fast --save-config quant.json > /dev/null
ncdm quantize tracks/slow --config quant.json --out classes/slow > /dev/null
same_bytes loocv --classes classes --backend zlib
same_bytes partition --classes classes --backend zlib

# 80 files make a report of about 170 kB, more than a pipe holds, so the
# writer is still writing when head exits.
mkdir many
for i in $(seq 1 80); do printf 'item %d alpha beta %d gamma' "$i" "$((i * i))" > "many/f$i.txt"; done
refuse 1 "error: stdout was closed" bash -o pipefail -c 'ncdm matrix many --backend zlib | head -c 1'

refuse 2 "usage error: --jobs" ncdm pair a.txt b.txt --jobs 0
ln -s /proc/self/mem bad.txt  # a regular file whose read fails, for root too
refuse 1 "error: bad.txt:" ncdm pair bad.txt a.txt
