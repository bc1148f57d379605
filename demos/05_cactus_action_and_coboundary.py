#!/usr/bin/env python3
"""The cactus group acting on tensor words.

The commutor built from highest weight elements is involutive and
satisfies the compatibility square, so the interval-reversal generators
s(p,q) it induces obey the full cactus presentation.  Everything below
is verified by exhaustive composition over words.
"""

from qcactus.crystals import (
    cactus_action,
    cactus_generator_images,
    check_coboundary,
    commutor_S,
    commutor_c,
    weight_bounded_triples,
)
from qcactus.groups import cactus_relation_instances, verify_action

print("s(1,3) on shape (1,2,1) reverses the interval:")
s13 = cactus_action((1, 2, 1), 1, 3)
print(f"  codomain shape: {s13.codomain}")
shown = 0
for w, v in s13.items():
    print(f"  {w} -> {v}")
    shown += 1
    if shown == 4:
        print("  ...")
        break

print("\nits square is the identity on every word:",
      s13.inverse() == s13)

print("\nthe two commutor constructions agree, e.g. on shapes (3,) and (2,):")
print("  equal?", commutor_S((3,), (2,)) == commutor_c((3,), (2,)))

report = check_coboundary(weight_bounded_triples(2))
print(f"\ncoboundary axioms on {report.triples_checked} triples: "
      f"{'all pass' if report.ok else report.failures}")

print("\ncactus presentation on 4 factors, weights <= 1:")
relations = cactus_relation_instances(4)
for base in [(1, 1, 1, 1), (1, 1, 0, 1)]:
    name, images = cactus_generator_images(base)
    failures = verify_action(images, relations, name)
    print(f"  base shape {base}: {len(relations)} relations, "
          f"{'no failures' if not failures else failures}")
