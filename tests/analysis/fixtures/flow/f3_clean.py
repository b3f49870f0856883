"""F3 clean twin: durable lanes fed only from logical/seeded state."""
import random

from repro.checkpoint import JournalWriter


class Recorder:
    def __init__(self, seed):
        self._rng = random.Random(seed)
        self._clock = 0
        self.token = f"client-{seed}"

    def stamp(self):
        self._clock += 1
        return self._clock

    def flush(self, path):
        doc = {"token": self.token, "at": self.stamp()}
        JournalWriter(path).append(doc)

    def state_dict(self):
        return {"seen": self.stamp(), "jitter": self._rng.random()}
