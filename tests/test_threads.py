"""Values, operations and caches are safe to share across threads.

Four threads start on empty caches, with the interpreter switching
threads every microsecond so that they meet inside the cached builders,
and each must get exactly what one thread gets alone.
"""

import sys
import threading

from qcactus import crystals, groups, uqsl2


def _clear_caches():
    for mod in (crystals, uqsl2):
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _work():
    coboundary = crystals.check_coboundary(crystals.weight_bounded_triples(3)).as_dict()
    name, images = crystals.cactus_generator_images((0, 1, 2))
    failures = groups.verify_action(images, groups.cactus_relation_instances(3), name)
    kt07 = [uqsl2.verify_kt07(m, n).as_dict() for m in range(3) for n in range(3)]
    return coboundary, images, [f.as_dict() for f in failures], kt07


def test_threads_on_fresh_caches_get_the_serial_results():
    _clear_caches()
    serial = _work()
    _clear_caches()
    results, errors = [None] * 4, []

    def run(i):
        try:
            results[i] = _work()
        except BaseException as exc:  # reported below, not lost with the thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert results == [serial] * 4
