"""COPR — the multi-granularity Compression Predictor (Section IV-C).

COPR replaces the metadata-cache: instead of *knowing* a line's
compression status before the read, the controller *predicts* it, opens
the predicted sub-rank(s), and corrects after BLEM decodes the header
that arrived with the data.  Wrong predictions cost a corrective access
(compressed predicted as uncompressed costs only wasted bandwidth);
right predictions cost nothing — and unlike the metadata-cache, COPR
never generates install or write-back traffic.

Three cooperating components:

* **Global Indicator (GI)** — eight 2-bit saturating counters, one per
  1/8th of the memory space.  Incremented on a compressible access,
  reset to zero on an incompressible one.  Seeds new PaPR entries.
* **Page-level Predictor (PaPR)** — a set-associative table of 2-bit
  counters indexed by 4 KB page number; counter >= 2 predicts
  "compressible".  New entries start at 3 when the GI counter exceeds
  its threshold, else at 0.
* **Line-level Predictor (LiPR)** — a set-associative table of 64-bit
  vectors, one prediction bit per line of the page.  On a misprediction
  the accessed bit is corrected; when PaPR says the page is uniform
  (counter >= 2 or <= 1 with conviction), the neighbouring bits are
  updated too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from repro import fastpath
from repro.workloads.datagen import LINES_PER_PAGE

_FULL_VECTOR = (1 << LINES_PER_PAGE) - 1


def _saturating_add(value: int, delta: int, maximum: int = 3) -> int:
    return max(0, min(maximum, value + delta))


class GlobalIndicator:
    """Eight 2-bit counters tracking region compressibility (the GI)."""

    def __init__(self, memory_bytes: int, regions: int = 8, threshold: int = 1) -> None:
        if regions <= 0:
            raise ValueError("regions must be positive")
        if memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if not 0 <= threshold <= 3:
            raise ValueError("threshold must be a 2-bit value")
        self._region_bytes = max(1, memory_bytes // regions)
        self._counters = [0] * regions
        self._regions = regions
        self._threshold = threshold

    def _region_of(self, address: int) -> int:
        return min(address // self._region_bytes, self._regions - 1)

    def update(self, address: int, compressible: bool) -> None:
        """Increment on compressible accesses, reset on incompressible."""
        region = self._region_of(address)
        if compressible:
            self._counters[region] = _saturating_add(self._counters[region], 1)
        else:
            self._counters[region] = 0

    def predicts_compressible(self, address: int) -> bool:
        """True when the region counter exceeds the threshold."""
        return self._counters[self._region_of(address)] > self._threshold

    @property
    def counters(self) -> Tuple[int, ...]:
        return tuple(self._counters)


class _SetAssociativeTable:
    """LRU set-associative storage shared by PaPR and LiPR."""

    def __init__(self, entries: int, ways: int) -> None:
        if entries <= 0 or ways <= 0:
            raise ValueError("entries and ways must be positive")
        if entries % ways != 0:
            raise ValueError("entries must be a multiple of ways")
        self._sets = entries // ways
        self._ways = ways
        # set index -> {tag: value}, insertion order = LRU order.
        self._data: List[Dict[int, object]] = [dict() for _ in range(self._sets)]

    def _locate(self, key: int) -> Tuple[Dict[int, object], int]:
        return self._data[key % self._sets], key

    def get(self, key: int):
        cache_set, tag = self._locate(key)
        if tag in cache_set:
            value = cache_set.pop(tag)
            cache_set[tag] = value  # refresh LRU position
            return value
        return None

    def put(self, key: int, value) -> None:
        cache_set, tag = self._locate(key)
        if tag in cache_set:
            cache_set.pop(tag)
        elif len(cache_set) >= self._ways:
            cache_set.pop(next(iter(cache_set)))  # evict LRU
        cache_set[tag] = value


class PagePredictor:
    """PaPR: per-page 2-bit compressibility counters."""

    def __init__(self, entries: int = 65536, ways: int = 16) -> None:
        self._table = _SetAssociativeTable(entries, ways)

    def lookup(self, page: int) -> Optional[int]:
        """Current counter value for the page, or ``None`` on a miss."""
        return self._table.get(page)

    def predict(self, page: int, threshold: int = 2) -> Optional[bool]:
        """Prediction for the page, or ``None`` when not tracked.

        The paper predicts "compressible" at counter >= 2; speculation
        call sites may demand a higher *threshold* because the two
        misprediction directions cost very different amounts (a wrong
        "compressed" guess serialises a corrective access, a wrong
        "uncompressed" guess only wastes bus bandwidth).
        """
        counter = self.lookup(page)
        if counter is None:
            return None
        return counter >= threshold

    def update(self, page: int, compressible: bool, gi_seed: Optional[bool]) -> None:
        """Count the observed outcome; allocate with a GI-derived seed."""
        counter = self._table.get(page)
        if counter is None:
            counter = 3 if gi_seed else 0
        counter = _saturating_add(counter, 1 if compressible else -1)
        self._table.put(page, counter)


class LinePredictor:
    """LiPR: per-page 64-bit line-compressibility vectors."""

    def __init__(self, entries: int = 16384, ways: int = 16) -> None:
        self._table = _SetAssociativeTable(entries, ways)

    def predict(self, page: int, line_in_page: int) -> Optional[bool]:
        vector = self._table.get(page)
        if vector is None:
            return None
        return bool((vector >> line_in_page) & 1)

    def update(
        self,
        page: int,
        line_in_page: int,
        compressible: bool,
        page_uniform: Optional[bool],
        seed_compressible: bool,
    ) -> None:
        """Correct the line's bit; spread to neighbours on uniform pages.

        Args:
            page: 4 KB page number.
            line_in_page: line index within the page (0..63).
            compressible: the observed outcome.
            page_uniform: PaPR's judgement that the page is uniform
                (counter saturated in either direction); ``None`` when
                PaPR has no entry.
            seed_compressible: initial vector polarity for new entries.
        """
        if not 0 <= line_in_page < LINES_PER_PAGE:
            raise ValueError("line_in_page out of range")
        vector = self._table.get(page)
        if vector is None:
            vector = (1 << LINES_PER_PAGE) - 1 if seed_compressible else 0
        if page_uniform:
            # The page looks homogeneous: update every line's bit.
            vector = (1 << LINES_PER_PAGE) - 1 if compressible else 0
        else:
            if compressible:
                vector |= 1 << line_in_page
            else:
                vector &= ~(1 << line_in_page)
        self._table.put(page, vector)


@dataclass(frozen=True)
class CoprConfig:
    """Component toggles and sizing for COPR (Fig. 17 ablations)."""

    use_global_indicator: bool = True
    use_page_predictor: bool = True
    use_line_predictor: bool = True
    papr_entries: int = 65536
    papr_ways: int = 16
    lipr_entries: int = 16384
    lipr_ways: int = 16
    gi_regions: int = 8
    gi_threshold: int = 2
    #: PaPR counter required to *speculatively* open a single sub-rank;
    #: 2 is the paper's letter, 3 trades recall for the precision the
    #: asymmetric misprediction costs reward.
    papr_speculation_threshold: int = 3

    def __post_init__(self) -> None:
        if not (self.use_global_indicator or self.use_page_predictor
                or self.use_line_predictor):
            raise ValueError("at least one COPR component must be enabled")


@dataclass
class CoprStats:
    """Prediction accuracy accounting (Fig. 11)."""

    predictions: int = 0
    correct: int = 0
    by_source: Dict[str, int] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        return self.correct / self.predictions if self.predictions else 0.0

    def note(self, source: str, correct: bool) -> None:
        self.predictions += 1
        if correct:
            self.correct += 1
        self.by_source[source] = self.by_source.get(source, 0) + 1

    def snapshot(self) -> dict:
        """Flat counter view for observability samplers."""
        return {
            "predictions": self.predictions,
            "correct": self.correct,
            "by_source": dict(self.by_source),
        }


class CoprPredictor:
    """The combined multi-granularity predictor."""

    def __init__(self, memory_bytes: int, config: CoprConfig = CoprConfig()) -> None:
        self._config = config
        self._gi = (
            GlobalIndicator(memory_bytes, config.gi_regions, config.gi_threshold)
            if config.use_global_indicator
            else None
        )
        self._papr = (
            PagePredictor(config.papr_entries, config.papr_ways)
            if config.use_page_predictor
            else None
        )
        self._lipr = (
            LinePredictor(config.lipr_entries, config.lipr_ways)
            if config.use_line_predictor
            else None
        )
        self.stats = CoprStats()
        self._last_source = "default"
        # The fast update is specialised for the full GI+PaPR+LiPR
        # configuration; ablated configs keep the component-wise path.
        self._fast = (
            fastpath.enabled()
            and self._gi is not None
            and self._papr is not None
            and self._lipr is not None
        )

    @property
    def config(self) -> CoprConfig:
        return self._config

    @property
    def last_source(self) -> str:
        """Which component produced the most recent prediction
        ("lipr" / "papr" / "gi" / "default")."""
        return self._last_source

    @staticmethod
    def _page_of(address: int) -> Tuple[int, int]:
        line = address // 64
        return line // LINES_PER_PAGE, line % LINES_PER_PAGE

    def predict(self, address: int) -> bool:
        """Predict whether the line at *address* is stored compressed.

        Resolution order: line-level hit, then page-level hit, then the
        global indicator, then a conservative "uncompressed" default
        (which never corrupts anything — it just fetches both sub-ranks).
        """
        page, line_in_page = self._page_of(address)
        if self._lipr is not None:
            prediction = self._lipr.predict(page, line_in_page)
            if prediction is not None:
                self._last_source = "lipr"
                return prediction
        if self._papr is not None:
            prediction = self._papr.predict(
                page, threshold=self._config.papr_speculation_threshold
            )
            if prediction is not None:
                self._last_source = "papr"
                return prediction
        if self._gi is not None:
            self._last_source = "gi"
            return self._gi.predicts_compressible(address)
        self._last_source = "default"
        return False

    def update(self, address: int, compressible: bool,
               predicted: Optional[bool] = None) -> None:
        """Train all components with the BLEM-decoded truth.

        When *predicted* is given, accuracy statistics are recorded for
        the (prediction, outcome) pair.
        """
        if self._fast:
            self._update_fast(address, compressible, predicted)
            return
        page, line_in_page = self._page_of(address)
        if predicted is not None:
            self.stats.note(self._last_source, predicted == compressible)

        gi_seed: Optional[bool] = None
        if self._gi is not None:
            gi_seed = self._gi.predicts_compressible(address)
            self._gi.update(address, compressible)

        page_uniform: Optional[bool] = None
        if self._papr is not None:
            counter = self._papr.lookup(page)
            if counter is not None:
                # Propagate to neighbours only when PaPR's conviction is
                # saturated *and* agrees with the observation; the
                # paper's plain >= 2 rule thrashes the vector on pages
                # with interleaved compressibility.
                page_uniform = (counter == 3 and compressible) or (
                    counter == 0 and not compressible
                )
            self._papr.update(page, compressible, gi_seed)

        if self._lipr is not None:
            papr_prediction = (
                self._papr.predict(page) if self._papr is not None else None
            )
            seed = papr_prediction if papr_prediction is not None else bool(gi_seed)
            self._lipr.update(
                page, line_in_page, compressible, page_uniform, seed
            )

    def _update_fast(self, address: int, compressible: bool,
                     predicted: Optional[bool]) -> None:
        """Inlined :meth:`update` for the full GI+PaPR+LiPR configuration.

        State-identical to the component-wise path: redundant table
        lookups of the same key are collapsed (re-getting a key that a
        get or put just refreshed does not change LRU order, and
        evictions only happen inside puts, whose membership/occupancy
        inputs are unchanged), and PaPR's post-update prediction is
        computed from the counter instead of a third lookup.
        """
        line = address // 64
        page = line // LINES_PER_PAGE
        line_in_page = line % LINES_PER_PAGE
        if predicted is not None:
            stats = self.stats
            stats.predictions += 1
            if predicted == compressible:
                stats.correct += 1
            source = self._last_source
            by_source = stats.by_source
            by_source[source] = by_source.get(source, 0) + 1

        gi = self._gi
        region = address // gi._region_bytes
        if region >= gi._regions:
            region = gi._regions - 1
        counters = gi._counters
        gi_seed = counters[region] > gi._threshold
        if compressible:
            value = counters[region] + 1
            counters[region] = 3 if value > 3 else value
        else:
            counters[region] = 0

        table = self._papr._table
        cache_set = table._data[page % table._sets]
        counter = cache_set.pop(page, None)
        if counter is None:
            page_uniform: Optional[bool] = None
            counter = 3 if gi_seed else 0
            if len(cache_set) >= table._ways:
                cache_set.pop(next(iter(cache_set)))  # evict LRU
        else:
            page_uniform = (counter == 3 and compressible) or (
                counter == 0 and not compressible
            )
        if compressible:
            if counter < 3:
                counter += 1
        elif counter > 0:
            counter -= 1
        cache_set[page] = counter

        table = self._lipr._table
        cache_set = table._data[page % table._sets]
        vector = cache_set.pop(page, None)
        if vector is None:
            vector = _FULL_VECTOR if counter >= 2 else 0
            if len(cache_set) >= table._ways:
                cache_set.pop(next(iter(cache_set)))  # evict LRU
        if page_uniform:
            vector = _FULL_VECTOR if compressible else 0
        elif compressible:
            vector |= 1 << line_in_page
        else:
            vector &= ~(1 << line_in_page)
        cache_set[page] = vector

    def replay(
        self,
        addresses: Sequence[int],
        compressible: Sequence[bool],
        is_read: Optional[Sequence[bool]] = None,
    ) -> None:
        """Train on a whole event stream in one pass.

        Without *is_read*, every event is ``update(address, outcome)``.
        With it, each read is first predicted from the pre-update state
        and scored: ``update(address, outcome, predicted=predict(address))``.
        End state, statistics and :attr:`last_source` match those
        per-event calls exactly.  The fused loop drops ``predict``'s
        LRU refresh: the update that follows moves the same page to the
        MRU slot of the same set, with no access in between.
        """
        reads = repeat(False) if is_read is None else is_read
        if not self._fast:
            predict, update = self.predict, self.update
            for address, outcome, read in zip(addresses, compressible, reads):
                if read:
                    update(address, outcome, predicted=predict(address))
                else:
                    update(address, outcome)
            return
        gi = self._gi
        counters = gi._counters
        region_bytes = gi._region_bytes
        last_region = gi._regions - 1
        gi_threshold = gi._threshold
        speculation = self._config.papr_speculation_threshold
        papr = self._papr._table
        papr_data, papr_sets, papr_ways = papr._data, papr._sets, papr._ways
        lipr = self._lipr._table
        lipr_data, lipr_sets, lipr_ways = lipr._data, lipr._sets, lipr._ways
        by_source = self.stats.by_source
        source = self._last_source
        predictions = correct = 0
        for address, outcome, read in zip(addresses, compressible, reads):
            line = address // 64
            page = line // LINES_PER_PAGE
            region = address // region_bytes
            if region > last_region:
                region = last_region
            gi_value = counters[region]
            papr_set = papr_data[page % papr_sets]
            counter = papr_set.pop(page, None)
            lipr_set = lipr_data[page % lipr_sets]
            vector = lipr_set.pop(page, None)
            if read:
                if vector is not None:
                    source = "lipr"
                    predicted = (vector >> (line % LINES_PER_PAGE)) & 1 == 1
                elif counter is not None:
                    source = "papr"
                    predicted = counter >= speculation
                else:
                    source = "gi"
                    predicted = gi_value > gi_threshold
                predictions += 1
                if predicted == outcome:
                    correct += 1
                by_source[source] = by_source.get(source, 0) + 1

            # GI, then PaPR, then LiPR: the transitions of _update_fast.
            if outcome:
                counters[region] = gi_value + 1 if gi_value < 3 else 3
            else:
                counters[region] = 0
            if counter is None:
                page_uniform = False
                counter = 3 if gi_value > gi_threshold else 0
                if len(papr_set) >= papr_ways:
                    papr_set.pop(next(iter(papr_set)))  # evict LRU
            else:
                page_uniform = counter == 3 if outcome else counter == 0
            if outcome:
                if counter < 3:
                    counter += 1
            elif counter > 0:
                counter -= 1
            papr_set[page] = counter

            if vector is None:
                vector = _FULL_VECTOR if counter >= 2 else 0
                if len(lipr_set) >= lipr_ways:
                    lipr_set.pop(next(iter(lipr_set)))  # evict LRU
            if page_uniform:
                vector = _FULL_VECTOR if outcome else 0
            elif outcome:
                vector |= 1 << (line % LINES_PER_PAGE)
            else:
                vector &= ~(1 << (line % LINES_PER_PAGE))
            lipr_set[page] = vector
        stats = self.stats
        stats.predictions += predictions
        stats.correct += correct
        self._last_source = source
