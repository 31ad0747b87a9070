"""Set-up probe, run in a fresh interpreter per measurement: import
weaksub and weaksub.cli, parse each config file given on the command
line and build its theta grid. The benchmark times the whole process.
The probe samples the machine's speed meanwhile (bench/speed.py) and
prints, as its last line, the speed and the time its samples took.

    python3 bench/probe.py CONFIG.json ...
"""
import json
import sys
from pathlib import Path

from speed import SpeedMeter

with SpeedMeter(during=True) as meter, meter.timed() as timing:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

    import weaksub  # noqa: F401
    import weaksub.cli as cli

    for path in sys.argv[1:]:
        config = cli.parse_config(Path(path).read_text())
        T, _ = config.processes()
        config.theta_grid.build(2 * T.dim)

print(json.dumps({"sampling_s": timing.sampling_s, "speed": timing.speed}))
