import corpus


def test_results_match_the_recorded_corpus_digest():
    # every library result over the seeded corpus, at lane widths 0, 1, 2
    # and 10, prints the bytes whose SHA-256 golden/corpus.sha256 holds
    assert corpus.digest() == corpus.RECORDED.read_text(encoding="utf-8").strip()
