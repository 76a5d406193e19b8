"""Fixed inputs of the three workloads.

Nothing here imports ``surfcodes``: the set-up probe reads this module before
it times the library import.
"""

# distance: (surface, Hirzebruch e, divisor, q, grid sizes |A| x |B| or None).
# Every code has a known closed-form distance, 3 <= k <= 9 and between 10^3
# and 10^6 nominal messages (q^k - 1)/(q - 1).  Prime and prime-power q carry
# about half of the messages each (741,775 vs 745,417 per round), so a
# prime-field-only kernel change and a table change are both visible.
DISTANCE_CODES = (
    # prime q
    ("p2", 0, (2,), 5, None),
    ("p2", 0, (2,), 7, None),
    ("p1xp1", 0, (1, 1), 11, None),
    ("p1xp1", 0, (2, 2), 3, None),
    ("p1xp1", 0, (2, 2), 5, None),
    ("hirzebruch", 1, (3, 1), 5, None),
    ("hirzebruch", 2, (3, 1), 7, None),
    ("p1xp1", 0, (1, 1), 13, (8, 8)),
    ("p1xp1", 0, (2, 1), 11, (9, 8)),
    # prime-power q
    ("p2", 0, (2,), 4, None),
    ("p2", 0, (2,), 8, None),
    ("p2", 0, (2,), 9, None),
    ("p1xp1", 0, (1, 1), 16, None),
    ("p1xp1", 0, (2, 2), 4, None),
    ("hirzebruch", 1, (2, 1), 9, None),
    ("hirzebruch", 1, (3, 1), 8, None),
    ("hirzebruch", 1, (4, 1), 4, None),
    ("hirzebruch", 2, (4, 1), 4, None),
    ("p1xp1", 0, (1, 2), 9, (7, 8)),
    ("p1xp1", 0, (2, 0), 256, (12, 8)),
)

# towers: the two README certificates and one search block around them.
# g1 = 33 needs 68 linear factors over F_67, so the sampler must skip it;
# g2 takes both parities and rho two values, and each computed genus is
# reused four times.
TOWER_Q = 67
TOWER_CERTS = ((30, 30, 1), (29, 30, 1))
TOWER_SEARCH = ((29, 30, 33), (29, 30), (1, 2))

# cli: the F_729 grid code (sizes of A and B) and the F_64 line code
CLI_GRID_Q = 729
CLI_GRID_SIZES = (9, 7)
CLI_LINE_Q = 64

# fields each workload's set-up builds, with operation tables when the
# workload's kernel uses them
SETUP_FIELDS = {
    "distance": (sorted({c[3] for c in DISTANCE_CODES}), True),
    "towers": ([TOWER_Q], False),
    "cli": ([], False),
}
