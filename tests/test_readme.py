"""The README's command-line examples, pinned byte for byte.

Each command runs in order in one directory (the third reads the code the
second writes); its stdout and exit code, and the files the commands write,
must keep the sha256 digests below.
"""

import contextlib
import hashlib
import io
import shlex

from surfcodes import cli

README_COMMANDS = (
    ("code build --surface p1xp1 --q 3 --divisor 1,1 --points all",
     "13bd435b52dc6cdc5912d5ac6601a81a3f4a536ebdd641b2ff1cdf90d14d7738"),
    ("code build --surface hirzebruch --e 1 --q 3 --divisor 1,1 --out code.json",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("code distance --in code.json --budget 1000000",
     "eb37e43721b98d1d1668cd66a6091df427157a03e6b1e99c05e949515285d46e"),
    ("bounds --surface p1xp1 --q 3 --divisor 1,1 --exact",
     "24f18846e30f4753625bfa9ed072b08f22a646ad9babd7d3373f0764098249b0"),
    ("bounds --surface p1xp1 --q 3 --divisor 1,1 --lift 2",
     "f552e18b883479a18b05677ed4977e6fca36e099c3dce4c3b426175435d420ab"),
    ("tower check --q 67 --g1 30 --g2 30 --rho 1 --seed 1",
     "60df53c8004250a21282310b261dc37acc92f6e961aed8d788b4267f1c5c93b8"),
    ("tower search --q 67 --g1 25..32 --g2 25..32 --rho 1",
     "33f851063879eb9495f7cd96ee10088400687dea7da2adaa6b4b60c2111fc0ab"),
    ("asym map --q 2 --g 2 --point 1/9,0",
     "eeb934ef1c69e68f6c8d3224f223bc62012edeff251a6ea51a04c4eee7e22401"),
    ("asym polygon --q 2 --g 2",
     "5db5806cd33f9fbb040d0ed14164b1bad29da50ce0f1bf2fff3a0b7cc579d4d2"),
    ("asym diagram --q 2 --g 2 --grid 100 --out d.csv --svg d.svg",
     "dd90cff3503f0842f211ccebd9515d08298fd36c425aae8a3b8a73c74fb49919"),
)

README_FILES = {
    "code.json": "ee89291ddd4e83757552cf1a8f11b91a639361ef91300aa90a6f79ff36351d9d",
    "d.csv": "9359f5f359ff3196786006039a4bed0f3d71c8d7e79e6453c806ac2d6c642b34",
    "d.svg": "4f78d667665549f75e940807dd5800a59ead9754afaa8b4778b6f12cdb581819",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_readme_outputs_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = []
    for command, _ in README_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(shlex.split(command))
        got.append((command, code, _sha256(out.getvalue().encode())))
    assert got == [(command, 0, digest) for command, digest in README_COMMANDS]
    assert {name: _sha256((tmp_path / name).read_bytes())
            for name in README_FILES} == README_FILES
