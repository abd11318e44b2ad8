#!/bin/sh
# A short command-line session.  Run from the repository root after
# `pip install -e .`; every command prints one deterministic report
# (only the elapsed-time line varies between runs).
set -e
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

echo '== built-in systems and graphs =='
unimod catalog

echo
echo '== verify and standardize the ten-form system =='
unimod check catalog:bixby_seymour

echo
echo '== its complexity, cross-checked by enumerating bases =='
unimod complexity catalog:bixby_seymour --enumerate

echo
echo '== write its Gale dual to a file and test self-duality =='
unimod dual catalog:bixby_seymour -o "$dir/dual.txt"
unimod isomorphic "$dir/dual.txt" catalog:bixby_seymour

echo
echo '== derive the cut system of K_4 from an edge list =='
printf '4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n' > "$dir/k4.txt"
unimod graph "$dir/k4.txt" --cographic

echo
echo '== symmetries of the cycle system of K_7: N = 21, |Aut| = 2 * 7! =='
unimod graph catalog:complete:7 --graphic -o "$dir/k7.txt"
unimod aut "$dir/k7.txt"

echo
echo '== lattice and polytope reports =='
unimod lattice catalog:bixby_seymour
unimod polytope catalog:bixby_seymour

echo
echo '== the same polytope report as JSON =='
unimod polytope catalog:bixby_seymour --json
