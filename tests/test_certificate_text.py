"""Printed subcover certificates hold when read as plain arithmetic.

Each ``certificate:`` line that ``primspec z subcover`` prints is read back
by ``arithmetic_text``, which knows only integers and ``^ * + -`` with
their usual precedence, and the equation must hold.  A format that a reader
would misread, such as ``-2^10`` for (-2)^10, fails here even when the
digest of the line was regenerated.
"""

import random

import pytest
from arithmetic_text import equation_holds, evaluate
from test_output_digests import Z_LINES

from primspec.cli import main

PRIMES = (2, 3, 5, 7, 11, 13)


def _certificates(capsys, r, s_values):
    """The certificate lines ``z subcover r s...`` prints, and its exit code."""
    code = main(["z", "subcover", str(r), *map(str, s_values)])
    out = capsys.readouterr().out
    prefix = "certificate: "
    return code, [line[len(prefix) :] for line in out.splitlines() if line.startswith(prefix)]


def test_the_evaluator_reads_the_usual_precedence():
    assert evaluate("-2^10") == -1024
    assert evaluate("(-2)^10") == 1024
    assert evaluate("2^3^2") == 512
    assert evaluate("1*14 + -1*21") == -7
    assert evaluate("-3*-4 + 2*(1 + 1)^2") == 20
    for bad in ("2^-1", "2 +", "(2", "2 / 1", "2 3"):
        with pytest.raises(ValueError):
            evaluate(bad)


def test_pinned_subcover_certificates_hold_as_printed(capsys):
    covers = [z[1:] for z in Z_LINES if z[0] == "subcover"]
    printed = 0
    for r, *s_values in covers:
        code, lines = _certificates(capsys, r, s_values)
        assert len(lines) == (code == 0), (r, s_values)
        for line in lines:
            assert equation_holds(line), (r, s_values, line)
            printed += 1
    # ten of the pinned lines are covers, the two negative r among them
    assert printed == 10


def test_random_covers_print_certificates_that_hold(capsys):
    rng = random.Random(31)
    negative_r = negative_coefficient = 0
    printed = 0
    while printed < 200:
        primes = rng.sample(PRIMES, rng.randint(0, 3))
        r = rng.choice((1, -1))
        for p in primes:
            r *= p ** rng.randint(1, 3)
        s_values = []
        for _ in range(rng.randint(1, 5)):
            s = rng.choice((1, -1)) * rng.randint(1, 40)
            for p in primes:
                s *= p ** rng.randint(0, 4)
            s_values.append(s)
        code, lines = _certificates(capsys, r, s_values)
        if code != 0:
            continue
        (line,) = lines
        assert equation_holds(line), (r, s_values, line)
        printed += 1
        negative_r += r < 0
        negative_coefficient += " + -" in line or "= -" in line
    # both signs of r and of the coefficients were read
    assert negative_r >= 50 and negative_coefficient >= 50
