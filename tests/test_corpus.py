"""The committed corpus agrees with the record digests of ``_digests.txt``.

Both hold the seed-0 protocol runs of the corpus problems in the "nested"
and "cr" modes.  A change that moves records and re-captures the digests
must regenerate the corpus too (``python3 tests/_corpus.py`` on an emptied
protocol directory), or the acceptance criteria judge runs of older code.
"""

import os

import _corpus

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_digests.txt")


def test_corpus_protocol_records_match_their_digests():
    with open(DIGESTS) as fh:
        pinned = {(problem, mode): digest for problem, mode, seed, run, digest
                  in (line.split() for line in fh) if run == "protocol" and seed == "0"}
    corpus = [(problem, mode) for problem in _corpus.SAVINGS_INSTANCES + ("smd6", "tq")
              for mode in ("nested", "cr")]
    assert len(corpus) == 20 and set(corpus) <= set(pinned)
    stale = [f"{problem}_{mode}_seed0" for problem, mode in corpus
             if _corpus.record_sha1(_corpus.record_for(problem, mode, 0)) != pinned[problem, mode]]
    assert stale == []
