"""REP106 fixture: daemon lanes held in a list, never joined (line 11)."""

import threading


class Lanes:
    """One daemon thread per lane; shutdown never waits for any of them."""

    def __init__(self, lanes):
        self._pending = []
        self._lanes = [threading.Thread(target=self._run, daemon=True)
                       for _ in range(lanes)]
        for lane in self._lanes:
            lane.start()

    def _run(self):
        while self._pending:
            self._pending.pop()
