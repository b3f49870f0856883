# reprolint test fixture: R4 raw-artifact-write — clean twin.
# Reads are fine; writes go through the atomic helpers.
import json

from repro.checkpoint import JournalWriter, write_json_atomic, write_text_atomic


def publish_results(path, rows):
    write_json_atomic(path, rows)


def publish_text(path, text):
    write_text_atomic(path, json.dumps(text))


def append_log(path, doc):
    with JournalWriter(path) as journal:
        journal.append(doc)


def load_results(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
