import pickle

import pytest

from holdscan import errors

ERROR_CLASSES = sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, errors.HoldscanError)),
    key=lambda cls: cls.__name__,
)

# Constructor arguments of the classes whose __init__ builds the message.
ARGS = {
    errors.MissingColumn: (["p0", "p1"],),
    errors.MalformedRow: (7, "bad int in start_ms"),
    errors.NonMonotonicTimestamps: ("c01",),
    errors.DuplicateTurnIndex: ("c01", 4),
    errors.UnknownCall: ("c02",),
    errors.EmptyTemplatePool: ("closing",),
    errors.ClassTooSmall: (2, 3, 10),
    errors.DuplicateKey: ("c03", 5),
    errors.UnknownAxis: ("dropout",),
    errors.MissingPredictions: ("c04",),
}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_survives_pickling(cls):
    """A worker process's error reaches the caller with its class, message and attributes."""
    original = cls(*ARGS.get(cls, ("a message",)))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(original, protocol=protocol))
        assert type(copy) is cls
        assert str(copy) == str(original)
        assert copy.args == original.args
        assert vars(copy) == vars(original)
