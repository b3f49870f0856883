"""F3 bad fixture: clock/uuid values reaching durable lanes."""
import time
import uuid

from repro.checkpoint import JournalWriter


class Recorder:
    def __init__(self):
        self.token = uuid.uuid4().hex

    def stamp(self):
        return time.time()

    def flush(self, path):
        doc = {"token": self.token, "at": self.stamp()}
        JournalWriter(path).append(doc)

    def state_dict(self):
        return {"seen": self.stamp()}
