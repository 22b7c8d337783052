"""Known harmonic basis rows up to weight 10 with their partition averages.

Polynomials are stored as parseable expression strings in the factored
form scalar * (integer combination); the bracket column is None for odd
weights, whose averages vanish identically.  Only the self-verification
suites and the tests read these rows; `shsym tables` computes its own.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import Partition

# (partition, polynomial expression, (bracket coefficient, (a, b, c)) or None)
Row = tuple[Partition, str, tuple[Fraction, tuple[int, int, int]] | None]

ROWS: tuple[Row, ...] = (
    ((), "1", (Fraction(1), (0, 0, 0))),
    ((3,), "-9/4*Q3", None),
    ((4,), "27/4*(Q2^2 + 2*Q4)", (Fraction(9, 320), (0, 1, 0))),
    ((5,), "-135/4*(5*Q5 + Q2*Q3)", None),
    ((6,), "225/4*(63*Q6 + 9*Q2*Q4 + Q2^3)", (Fraction(-55, 384), (0, 0, 1))),
    ((3, 3), "225/4*(63*Q3^2 - 108*Q2*Q4 + 2*Q2^3)", (Fraction(115, 384), (0, 0, 1))),
    ((7,), "-14175/16*(126*Q7 + 14*Q2*Q5 + Q2^2*Q3)", None),
    ((4, 3), "-99225/16*(18*Q3*Q4 - 40*Q2*Q5 + Q2^2*Q3)", None),
    (
        (8,),
        "19845/16*(3960*Q8 + 360*Q2*Q6 + 20*Q2^2*Q4 + Q2^4)",
        (Fraction(19173, 4096), (0, 2, 0)),
    ),
    (
        (5, 3),
        "19845/2*(495*Q3*Q5 + 45*Q2*Q3^2 - 1350*Q2*Q6 - 50*Q2^2*Q4 + 2*Q2^4)",
        (Fraction(-2415, 128), (0, 2, 0)),
    ),
    (
        (4, 4),
        "297675/8*(132*Q4^2 + 24*Q2*Q3^2 - 480*Q2*Q6 - 28*Q2^2*Q4 + Q2^4)",
        (Fraction(-38241, 2048), (0, 2, 0)),
    ),
    ((9,), "-297675/8*(7722*Q9 + 594*Q2*Q7 + 27*Q2^2*Q5 + Q2^3*Q3)", None),
    (
        (6, 3),
        "-893025/4*(1287*Q3*Q6 + 99*Q2*Q3*Q4 - 4158*Q2*Q7 - 162*Q2^2*Q5 + 5*Q2^3*Q3)",
        None,
    ),
    (
        (5, 4),
        "-8037225/8*(286*Q4*Q5 + 66*Q2*Q3*Q4 - 1540*Q2*Q7 - 117*Q2^2*Q5 + 3*Q2^3*Q3)",
        None,
    ),
    (
        (3, 3, 3),
        "-893025/4*(1287*Q3^3 - 3564*Q2*Q3*Q4 + 3240*Q2^2*Q5 + 10*Q2^3*Q3)",
        None,
    ),
    (
        (10,),
        "382725/8*(450450*Q10 + 30030*Q2*Q8 + 1155*Q2^2*Q6 + 35*Q2^3*Q4 + Q2^5)",
        (Fraction(-2053485, 4096), (0, 1, 1)),
    ),
    (
        (7, 3),
        "1913625/8*(90090*Q3*Q7 + 6006*Q2*Q3*Q5 - 336336*Q2*Q8 + 231*Q2^2*Q3^2"
        " - 12936*Q2^2*Q6 - 112*Q2^3*Q4 + 10*Q2^5)",
        (Fraction(11975985, 4096), (0, 1, 1)),
    ),
    (
        (6, 4),
        "13395375/8*(12870*Q4*Q6 + 1716*Q2*Q3*Q5 + 858*Q2*Q4^2 - 96096*Q2*Q8"
        " + 132*Q2^2*Q3^2 - 6501*Q2^2*Q6 - 89*Q2^3*Q4 + 5*Q2^5)",
        (Fraction(21255885, 4096), (0, 1, 1)),
    ),
    (
        (5, 5),
        "8037225/4*(10725*Q5^2 + 1430*Q2*Q3*Q5 + 1430*Q2*Q4^2 - 100100*Q2*Q8"
        " + 165*Q2^2*Q3^2 - 7700*Q2^2*Q6 - 120*Q2^3*Q4 + 6*Q2^5)",
        (Fraction(7759395, 1024), (0, 1, 1)),
    ),
    (
        (4, 3, 3),
        "13395375/8*(12870*Q3^2*Q4 - 34320*Q2*Q3*Q5 - 10296*Q2*Q4^2 + 363*Q2^2*Q3^2"
        " + 55440*Q2^2*Q6 - 376*Q2^3*Q4 + 10*Q2^5)",
        (Fraction(-16583805, 4096), (0, 1, 1)),
    ),
)


def rows_up_to(max_weight: int) -> list[Row]:
    return [row for row in ROWS if sum(row[0]) <= max_weight]


def even_rows(max_weight: int = 10) -> list[Row]:
    return [row for row in rows_up_to(max_weight) if sum(row[0]) % 2 == 0]
