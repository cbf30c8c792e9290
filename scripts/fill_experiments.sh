#!/bin/sh
# Splices recorded results from results/ into EXPERIMENTS.md placeholders.
# Idempotent: rerun after regenerating any result file.
set -e
cd "$(dirname "$0")/.."
python3 - <<'EOF'
md = open('EXPERIMENTS.md').read()

# The one (id, scale) list, shared with run_experiments.sh.
scale = dict(l.split() for l in open('scripts/experiments.list') if l.strip() and not l.startswith('#'))

def block(exp):
    try:
        body = open(f"results/{exp}-scale{scale[exp]}.txt").read().strip()
    except FileNotFoundError:
        return None
    return "```\n" + body + "\n```"

def fill(marker, exp, note=True):
    global md
    b = block(exp)
    if b is None:
        return
    if note:
        b = f"Measured (`dsbench -exp {exp} -scale {scale[exp]}`):\n\n" + b
    md = md.replace(f"<!-- {marker} -->", b)

fill("FIG6_RESULTS", "fig6", note=False)
fill("TABLE2_RESULTS", "table2")
fill("FIG7_RESULTS", "fig7")
fill("FIG8_RESULTS", "fig8")
fill("FIG9_RESULTS", "fig9")
fill("FIG10_RESULTS", "fig10")

abl = [b for b in map(block, ("ablation-truncation", "ablation-mapping")) if b]
if abl:
    md = md.replace("<!-- ABLATION_RESULTS -->", "\n\n".join(abl))

open('EXPERIMENTS.md','w').write(md)
print("filled:", [m for m in ["FIG6","TABLE2","FIG7","FIG8","FIG9","FIG10","ABLATION"] if f"<!-- {m}_RESULTS -->" not in md])
EOF
