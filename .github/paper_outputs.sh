#!/usr/bin/env bash
# Run the paper commands once and keep everything they write under OUT.
#
#   .github/paper_outputs.sh OUT
#
# Each command runs inside OUT with a relative --out directory, and its
# console output goes to <directory>.txt next to it, so two runs (or a run of
# two checkouts) must leave trees that `diff -r` finds identical, console
# output included.  The script exits non-zero when a command exits with an
# unexpected status, a gate below does not match, or an SVG file does not
# parse as XML.
#
# Together the commands reach every write_svg caller and every CSV writer.
# reproduce-paper without --full is the pass the benchmark's paper workload
# times; --full runs through the characteristic curves and count maps of all
# four reference instances.  Both must pass all 17 checks.
#
# - The quarto's characteristic curves with a = 0.3, b = 1.2 run the
#   elimination of x on fold-image targets, and the square's follow one
#   closed chain through the cusps of its closed singular branch.
# - The in-line trace at step 0.4 must report its isolated point (pi, 0),
#   which no branch passes at any step.
# - The manipulator regions maps run the half-angle elimination on 256
#   targets each.
# - The monodromy loop at (50, 300) lies outside the configured window's
#   image but crosses the image over the reach box, where its lifts run: it
#   must print a clearance of 0 and exit 2 on the fold image.
# - classify runs on the first cusp that cusps prints.
# - The first two dkp targets have 4 solutions inside the box; the second
#   box's angle window, (5.5, 7.0), lies past the canonical [-pi/2, 3pi/2)
#   and counts modulo 2pi.  The next two are the images of (0, 1.3) and
#   (pi, -4) on the offset manipulator, where the elimination divides by
#   sin(phi) = 0: 4 solutions, 2 of them on phi = 0, and 6 solutions, 2 of
#   them on phi = pi (y_max = 20 holds the one at y = 13.4).
# - The quarto with a = 0.3, b = 1.2 eliminates x, as |a| < |b|: (1, 1) has
#   2 solutions, and its regions map counts 0:19, 2:169, 4:68.  At
#   a = b = 0 the elimination loses y everywhere, and (1, 1) has the 4
#   solutions of u = x^2, v = y^2.  There the crossing of the singular axes
#   is the hyperbolic corank-2 germ, and at a = 1, b = 0 a degenerate point;
#   cusps must report each as such.
#
# A RuntimeWarning (NaN, overflow) or a DeprecationWarning on a CLI path is
# an error here, as it is under pytest.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 OUT" >&2
  exit 64
fi
root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src"
export PYTHONWARNINGS=error::RuntimeWarning,error::DeprecationWarning
mkdir -p "$1/cfg"
cd "$1"

printf 'family = rpr2pr_offset\na1 = 3\na2 = 7\nb1 = 6\nb2 = 5\nd = 3\ny_max = 8\n' > cfg/offset.cfg
printf 'family = rpr2pr_exact\na1 = 3\na2 = 7\nb1 = 6\nb2 = 5\ny_max = 8\n' > cfg/exact.cfg
printf 'family = complex_square_unfolded\na = 1\nb = -1\nphi_min = -4\nphi_max = 4\ny_max = 4\n' > cfg/square.cfg
printf 'family = rpr2pr_offset\na1 = 3\na2 = 7\nb1 = 6\nb2 = 5\nd = 3\nphi_min = 5.5\nphi_max = 7.0\ny_max = 8\n' > cfg/window.cfg
printf 'family = rpr2pr_offset\na1 = 3\na2 = 7\nb1 = 6\nb2 = 5\nd = 3\ny_max = 20\n' > cfg/tall.cfg
printf 'family = quarto_unfolded\na = 0.3\nb = 1.2\n' > cfg/quarto.cfg
printf 'family = quarto_unfolded\na = 0\nb = 0\n' > cfg/quarto0.cfg
printf 'family = quarto_unfolded\na = 1\nb = 0\n' > cfg/quarto10.cfg

# run NAME STATUS COMMAND ARGS...: run a cuspforge command writing to NAME/,
# keep its console output in NAME.txt, and stop unless it exits with STATUS.
run() {
  local name=$1 want=$2 status=0
  shift 2
  python -m cuspforge.cli "$@" --out "$name" > "$name.txt" 2>&1 || status=$?
  if [ "$status" -ne "$want" ]; then
    cat "$name.txt" >&2
    echo "$name: exit status $status, expected $want" >&2
    exit 1
  fi
}

run paper-quick 0 reproduce-paper
grep "^17/17 checks passed" paper-quick.txt
run paper 0 reproduce-paper --full
grep "^17/17 checks passed" paper.txt
run trace 0 trace --characteristics --config cfg/offset.cfg
run trace-quarto 0 trace --characteristics --config cfg/quarto.cfg
run trace-square 0 trace --characteristics --config cfg/square.cfg
run trace-exact 0 trace --step 0.4 --config cfg/exact.cfg
grep -F ", 1 isolated point(s)" trace-exact.txt
run regions 0 regions --config cfg/square.cfg
run regions-exact 0 regions --resolution 16 --config cfg/exact.cfg
run regions-offset 0 regions --resolution 16 --config cfg/offset.cfg
run monodromy 0 monodromy --config cfg/exact.cfg --center 81,144 --radius 20
run lift 0 monodromy --config cfg/exact.cfg --center 81,144 --radius 20 \
  --start=3.403391522,-3.309001820
run crossing 2 monodromy --config cfg/exact.cfg --center 50,300 --radius 20
grep -E "clearance to image curves = 0$" crossing.txt
run cusps 0 cusps --config cfg/offset.cfg
run classify 0 classify --config cfg/offset.cfg --point=-0.00234328474958,2.90691669249
run dkp 0 dkp --config cfg/exact.cfg --target 40,60
run dkp-window 0 dkp --config cfg/window.cfg --target 18,14
run dkp-phi-0 0 dkp --config cfg/offset.cfg --target 11.89,6.89
run dkp-phi-pi 0 dkp --config cfg/tall.cfg --target 82,145
run dkp-quarto 0 dkp --config cfg/quarto.cfg --target 1,1
run regions-quarto 0 regions --bounds=-2,10,-2,10 --resolution 16 --config cfg/quarto.cfg
run dkp-quarto0 0 dkp --config cfg/quarto0.cfg --target 1,1
run cusps-quarto0 0 cusps --config cfg/quarto0.cfg
grep -F "Corank2Hyperbolic" cusps-quarto0.txt
run cusps-quarto10 0 cusps --config cfg/quarto10.cfg
grep -F "Degenerate" cusps-quarto10.txt

# write_svg writes its files as text, so each must parse as XML.
python -c "import pathlib; from xml.etree import ElementTree as ET
svgs = sorted(pathlib.Path('.').rglob('*.svg'))
assert svgs, 'no SVG file written'
for svg in svgs: ET.parse(svg)
print(f'{len(svgs)} SVG files parse')"
