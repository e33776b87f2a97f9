"""The seeded inputs are a pure function of the seed."""

import itertools

import inputs


def _streams(seed, workdir):
    cli = inputs.cli(seed, workdir)
    return {
        "trickle": inputs.trickle(seed, 2.0),
        "hot": inputs.hot(seed, 2.0),
        "saturate": [list(itertools.islice(inputs.saturate(seed, k), 20))
                     for k in range(inputs.SATURATE_CLIENTS)],
        "stream": list(itertools.islice(inputs.stream_posts(seed), 3)),
        "dispatch": list(itertools.islice(inputs.dispatch(seed), 8)),
        "cli": (cli, (workdir / "cli-trace.jsonl").read_bytes()),
    }


def test_same_seed_gives_identical_bytes(tmp_path):
    assert _streams(7, tmp_path) == _streams(7, tmp_path)


def test_seeds_give_different_inputs(tmp_path):
    first = _streams(7, tmp_path)
    second = _streams(8, tmp_path)
    for name in first:
        assert first[name] != second[name], name


def test_open_loop_schedules_have_the_stated_rate():
    times, asks = inputs.trickle(3, 10.0)
    assert len(times) == len(asks) == round(inputs.TRICKLE_RATE * 10)
    assert times == sorted(times) and 0 <= times[0] and times[-1] < 10.0
    lp = sum(b'"protocol":"lp"' in body for _, body in asks)
    assert 0.05 < lp / len(asks) < 0.15


def test_hot_repeats_few_questions_and_trickle_never_repeats():
    _, hot = inputs.hot(3, 10.0)
    _, trickle = inputs.trickle(3, 10.0)
    assert len(set(trickle)) == len(trickle)
    repeats = len(hot) - len(set(hot))
    assert repeats / len(hot) > 0.8


def test_dispatch_repeats_only_computed_seeds():
    seen = set()
    for kind, seed, _ in itertools.islice(inputs.dispatch(5), 40):
        if kind == "cold":
            assert seed not in seen
            seen.add(seed)
        else:
            assert seed in seen
