"""The wrappers' row-by-row reference.

``suspension_rows`` and ``masquerade_rows`` are ``SuspensionAttacker``'s
and ``MasqueradeAttacker``'s transforms as one Python loop over the
victim's rows: the oracle their columnar ``frames_array`` is held to
(``tests/test_fastbus.py``).  A row is ``(release, can_id, data, label,
source)``, as ``schedule_rows`` reads it off a schedule.
"""


def schedule_rows(schedule):
    """A schedule's rows as ``(release, can_id, data, label, source)`` tuples."""
    names = schedule.source_names
    return [
        (release, can_id, payload[:dlc].tobytes(), "T" if label else "R", names[code])
        for release, can_id, dlc, payload, label, code in zip(
            schedule.release_times.tolist(),
            schedule.can_ids.tolist(),
            schedule.dlcs.tolist(),
            schedule.payloads,
            schedule.labels.tolist(),
            schedule.sources.tolist(),
        )
    ]


def suspension_rows(wrapper, until):
    """``SuspensionAttacker.frames_array(until)``, one victim row at a time."""
    out = []
    for row in schedule_rows(wrapper.victim.frames_array(until)):
        release, can_id, data, _, _ = row
        targeted = wrapper.can_id is None or can_id == wrapper.can_id
        active = any(start <= release < end for start, end in wrapper.windows)
        if not (targeted and active):
            out.append(row)
        elif wrapper.mode == "delay" and release + wrapper.delay < until:
            out.append((release + wrapper.delay, can_id, data, "T", wrapper.name))
    # A delayed frame can land between two pass-through releases.
    out.sort(key=lambda row: row[0])
    return out


def masquerade_rows(wrapper, until):
    """``MasqueradeAttacker.frames_array(until)``: suppressed victim, then spoofs."""
    merged = suspension_rows(wrapper._suppressor, until)
    merged += schedule_rows(wrapper._injector.frames_array(until))
    merged.sort(key=lambda row: row[0])
    return merged
