"""F3 shared stub of repro.checkpoint: the journal writer both twins append through."""


class JournalWriter:
    def __init__(self, path):
        self._path = path

    def append(self, doc):
        return None
