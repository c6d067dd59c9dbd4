"""Format of the golden-set tool (`tests/golden_cli.py`)."""

import re

import golden_cli

LINE = re.compile(r"(\d+) ([0-9a-f]{64}) (\S.*)")


def test_calls_cover_every_command():
    argvs = golden_cli.calls()
    assert {a[0] for a in argvs} == {"diag", "entropy", "convert", "landauer",
                                     "gibbs", "erase", "verify"}
    assert {a[-1] for a in argvs} == {"--json"}
    assert {a[a.index("--regime") + 1] for a in argvs
            if a[0] == "convert"} == {"unital", "rare", "noisy"}
    assert len({tuple(a) for a in argvs}) == len(argvs)


def test_one_hashed_line_per_call():
    argvs = [["diag", "quantum:2", "--state", "random", "--json"],
             ["diag", "square_bit", "--state", "center-offset", "--json"],
             ["gibbs", "quantum:2", "--H", "[0, 1]", "--json"]]
    lines = golden_cli.golden_lines(argvs)
    assert lines == golden_cli.golden_lines(argvs)
    codes = []
    for line, argv in zip(lines, argvs):
        m = LINE.fullmatch(line)
        assert m and m.group(3) == " ".join(argv)
        codes.append(int(m.group(1)))
    assert codes == [0, 3, 2]
