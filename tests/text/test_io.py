"""Corpus serialization round-trip tests."""

from repro.text import (
    Corpus,
    Document,
    read_corpus,
    write_corpus,
)


def _corpus():
    return Corpus(
        "demo",
        [
            Document(0, {"title": "alpha beta", "body": "gamma"}),
            Document(1, {"title": "delta", "body": "epsilon zeta"}),
        ],
        represented_bytes=12345.0,
        meta={"n_themes": 2},
    )


def test_roundtrip(tmp_path):
    c = _corpus()
    path = tmp_path / "demo.jsonl"
    nbytes = write_corpus(c, path)
    assert nbytes == path.stat().st_size
    back = read_corpus(path)
    assert back.name == "demo"
    assert back.represented_bytes == 12345.0
    assert back.meta == {"n_themes": 2}
    assert len(back) == 2
    assert back[0].fields == c[0].fields
    assert back[1].doc_id == 1


def test_read_skips_blank_lines(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text(
        '{"_header": {"corpus": "x"}}\n\n'
        '{"doc_id": 0, "fields": {"a": "b"}}\n'
    )
    c = read_corpus(path)
    assert len(c) == 1


def test_read_without_header_uses_stem(tmp_path):
    path = tmp_path / "plain.jsonl"
    path.write_text('{"doc_id": 3, "fields": {"a": "b c"}}\n')
    c = read_corpus(path)
    assert c.name == "plain"
    assert c.represented_bytes is None


def test_unicode_content_roundtrips(tmp_path):
    c = Corpus("u", [Document(0, {"body": "naïve café 中文"})])
    path = tmp_path / "u.jsonl"
    write_corpus(c, path)
    assert read_corpus(path)[0].fields["body"] == "naïve café 中文"
