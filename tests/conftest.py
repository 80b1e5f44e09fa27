import hypothesis
import pytest

hypothesis.settings.register_profile(
    "ramforge",
    deadline=None,
    max_examples=60,
    derandomize=True,
)
hypothesis.settings.load_profile("ramforge")


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap attribute `name` of each target so that every call is recorded.

    count_calls(name, *targets) patches, through monkeypatch, each target's
    attribute with one wrapper that calls the original and appends the
    positional arguments of the call (a tuple) to one list, and returns that
    list.  A method patched on a class records `self` first.
    """

    def patch(name, *targets):
        calls = []
        for target in targets:
            real = getattr(target, name)

            def counted(*args, _real=real, **kwargs):
                calls.append(args)
                return _real(*args, **kwargs)

            monkeypatch.setattr(target, name, counted)
        return calls

    return patch
