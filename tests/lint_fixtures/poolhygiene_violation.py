# reprolint: module-role=pool
"""Fixture: unbounded future waits, executor .map() and thread pools in a pool module."""

import concurrent.futures
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import ThreadPoolExecutor as Threads


def work(item):
    return item


def fan_out(items):
    with ThreadPoolExecutor(max_workers=2) as pool:  # thread fan-out
        results = list(pool.map(work, items))  # naked map: no failure story
        future = pool.submit(work, 0)
        results.append(future.result())  # unbounded wait
    return results


def aliased_thread_pools():
    first = Threads(max_workers=2)
    second = concurrent.futures.ThreadPoolExecutor()
    return first, second
