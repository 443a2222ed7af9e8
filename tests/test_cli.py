"""Command-line interface tests."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    rc = main(
        [
            "generate",
            "--dataset",
            "pubmed",
            "--bytes",
            "80000",
            "--seed",
            "4",
            "--themes",
            "4",
            "--out",
            str(path),
        ]
    )
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def results_dir(corpus_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-results")
    rc = main(
        [
            "run",
            "--corpus",
            str(corpus_file),
            "--nprocs",
            "4",
            "--clusters",
            "4",
            "--major-terms",
            "120",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out


def test_generate_writes_jsonl(corpus_file):
    from repro.text import read_corpus

    corpus = read_corpus(corpus_file)
    assert len(corpus) > 10
    assert corpus.field_names == ["title", "abstract", "journal"]


def test_generate_trec(tmp_path):
    path = tmp_path / "t.jsonl"
    rc = main(
        [
            "generate",
            "--dataset",
            "trec",
            "--bytes",
            "50000",
            "--out",
            str(path),
        ]
    )
    assert rc == 0
    assert path.exists()


def test_run_exports_everything(results_dir):
    for name in (
        "result.npz",
        "themeview.pgm",
        "themeview.json",
        "themeview.txt",
        "coordinates.csv",
    ):
        assert (results_dir / name).exists(), name
    csv = (results_dir / "coordinates.csv").read_text().splitlines()
    assert csv[0] == "doc_id,x,y,cluster"
    assert len(csv) > 10


def test_run_mp_backend_matches_sim(corpus_file, results_dir, tmp_path):
    """`run -P 4 --backend mp` writes a byte-identical result.npz."""
    out = tmp_path / "mp"
    rc = main(
        [
            "run",
            "--corpus",
            str(corpus_file),
            "-P",
            "4",
            "--backend",
            "mp",
            "--clusters",
            "4",
            "--major-terms",
            "120",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert (out / "result.npz").read_bytes() == (
        (results_dir / "result.npz").read_bytes()
    )


def test_run_serial_engine(corpus_file, tmp_path):
    out = tmp_path / "serial"
    rc = main(
        [
            "run",
            "--corpus",
            str(corpus_file),
            "--nprocs",
            "0",
            "--clusters",
            "3",
            "--major-terms",
            "100",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert (out / "result.npz").exists()


def test_analyze_summary(results_dir, capsys):
    rc = main(["analyze", "--results", str(results_dir / "result.npz")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "topics:" in out


def test_analyze_similar(results_dir, capsys):
    rc = main(
        [
            "analyze",
            "--results",
            str(results_dir / "result.npz"),
            "--similar",
            "0",
            "--top",
            "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "documents similar to 0" in out


def test_analyze_cluster(results_dir, capsys):
    rc = main(
        [
            "analyze",
            "--results",
            str(results_dir / "result.npz"),
            "--cluster",
            "0",
        ]
    )
    assert rc == 0
    assert "cluster 0" in capsys.readouterr().out


def test_analyze_query(results_dir, capsys):
    from repro.engine import load_result

    result = load_result(results_dir / "result.npz")
    term = result.topic_term_strings[0]
    rc = main(
        [
            "analyze",
            "--results",
            str(results_dir / "result.npz"),
            "--query",
            term,
        ]
    )
    assert rc == 0
    assert "doc" in capsys.readouterr().out


def test_generate_newswire(tmp_path):
    path = tmp_path / "wire.jsonl"
    rc = main(
        [
            "generate",
            "--dataset",
            "newswire",
            "--bytes",
            "40000",
            "--out",
            str(path),
        ]
    )
    assert rc == 0
    from repro.text import read_corpus

    assert read_corpus(path).field_names == [
        "headline",
        "dateline",
        "body",
    ]


def test_metrics_report_from_saved_result(results_dir, capsys, tmp_path):
    json_out = tmp_path / "snap.json"
    rc = main(
        [
            "metrics-report",
            "--results",
            str(results_dir / "result.npz"),
            "--json",
            str(json_out),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "communication matrix" in out
    assert "load balance" in out
    assert "hashmap RPC locality" in out
    import json

    snap = json.loads(json_out.read_text())
    assert snap["schema"] == "repro-metrics/1"
    assert snap["nprocs"] == 4


def test_metrics_report_prometheus_format(results_dir, capsys):
    rc = main(
        [
            "metrics-report",
            "--results",
            str(results_dir / "result.npz"),
            "--format",
            "prometheus",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_comm_coll_calls counter" in out
    assert 'rank="0"' in out


def test_metrics_report_rejects_non_result_file(tmp_path, capsys):
    bogus = tmp_path / "notaresult.npz"
    bogus.write_bytes(b"this is not a result archive")
    rc = main(["metrics-report", "--results", str(bogus)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "not a saved engine result" in err
    assert str(bogus) in err


@pytest.fixture(scope="module")
def store_dir(corpus_file, results_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-store") / "store"
    rc = main(
        [
            "serve-build",
            "--results",
            str(results_dir / "result.npz"),
            "--corpus",
            str(corpus_file),
            "--shards",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out


def test_serve_build_writes_store(store_dir, capsys):
    assert (store_dir / "manifest.json").exists()
    assert (store_dir / "model.repro").exists()
    from repro.serve import load_manifest

    manifest = load_manifest(store_dir)
    assert manifest.nshards == 3
    for info in manifest.shards:
        assert (store_dir / info.file).exists()


def test_serve_query_cluster(store_dir, capsys):
    import json

    rc = main(
        ["serve-query", "--store", str(store_dir), "--cluster", "0"]
    )
    assert rc == 0
    resp = json.loads(capsys.readouterr().out)
    assert resp["kind"] == "cluster"
    assert resp["size"] > 0
    assert resp["top_terms"]
    assert not resp["partial"]


def test_serve_query_search(store_dir, results_dir, capsys):
    import json

    from repro.engine import load_result

    result = load_result(results_dir / "result.npz")
    term = result.major_terms[0].term
    rc = main(
        [
            "serve-query",
            "--store",
            str(store_dir),
            "--search",
            term,
            "--top",
            "5",
        ]
    )
    assert rc == 0
    resp = json.loads(capsys.readouterr().out)
    assert resp["kind"] == "search"
    assert len(resp["hits"]) <= 5
    assert resp["hits"], "search over a model term found nothing"


def test_serve_query_requires_exactly_one_query(store_dir, capsys):
    rc = main(["serve-query", "--store", str(store_dir)])
    assert rc == 1
    assert "pass one of" in capsys.readouterr().err


def test_serve_query_bad_region_spec(store_dir, capsys):
    rc = main(
        ["serve-query", "--store", str(store_dir), "--region", "1,2"]
    )
    assert rc == 1
    assert "X,Y,RADIUS" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, says",
    [
        pytest.param(
            ["serve-query", "--store", "{store}", "--region", "0,0,-1"],
            "RADIUS >= 0",
            id="region-negative-radius",
        ),
        pytest.param(
            ["serve-query", "--store", "{store}", "--region", "nan,0,1"],
            "finite",
            id="region-nan",
        ),
        pytest.param(
            ["serve-query", "--store", "{store}", "--search", "gene",
             "--top", "0"],
            "--top",
            id="top-zero",
        ),
        pytest.param(
            ["serve-query", "--store", "{store}", "--search", "gene",
             "--top", "-3"],
            "--top",
            id="top-negative",
        ),
        pytest.param(
            ["workbench-session", "--store", "{store}", "--script",
             "{script}"],
            "list of strings",
            id="workbench-terms-string",
        ),
        pytest.param(
            ["analyze", "--results", "{results}", "--similar", "999999"],
            "--similar: unknown doc_id 999999",
            id="analyze-similar-unknown",
        ),
        pytest.param(
            ["analyze", "--results", "{results}", "--cluster", "999"],
            "--cluster: cluster 999 out of range",
            id="analyze-cluster-too-big",
        ),
        pytest.param(
            ["analyze", "--results", "{results}", "--cluster", "-1"],
            "--cluster: cluster -1 out of range",
            id="analyze-cluster-negative",
        ),
        pytest.param(
            ["serve-query", "--store", "{store}", "--similar", "999999"],
            "error: {store}: unknown doc_id 999999",
            id="serve-query-similar-unknown",
        ),
        pytest.param(
            ["serve-query", "--store", "{store}", "--cluster", "999"],
            "error: {store}: cluster 999 out of range",
            id="serve-query-cluster-too-big",
        ),
        pytest.param(
            ["facet-query", "--store", "{stamped}", "--kind", "counts",
             "--t0", "nan"],
            "--t0 must be finite",
            id="facet-query-t0-nan",
        ),
        pytest.param(
            ["facet-query", "--store", "{stamped}", "--kind", "terms",
             "--t1", "1e400"],
            "--t1 must be finite",
            id="facet-query-t1-overflow",
        ),
        pytest.param(
            ["facet-query", "--store", "{stamped}", "--kind", "counts",
             "--source", "99"],
            "--source must be in [-1, 3), got 99",
            id="facet-query-source-too-big",
        ),
        pytest.param(
            ["facet-query", "--store", "{stamped}", "--kind", "counts",
             "--source", "-5"],
            "--source must be in [-1, 3), got -5",
            id="facet-query-source-negative",
        ),
    ],
)
def test_bad_query_value_is_an_error_line(
    argv, says, store_dir, results_dir, stamped_cli_store, tmp_path, capsys
):
    script = tmp_path / "ops.json"
    script.write_text('[{"verb": "search", "name": "a", "terms": "abc"}]')
    paths = {
        "store": store_dir,
        "stamped": stamped_cli_store,
        "results": results_dir / "result.npz",
        "script": script,
    }
    rc = main([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ")
    assert says.format(**paths) in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_serve_query_missing_store(tmp_path, capsys):
    rc = main(
        [
            "serve-query",
            "--store",
            str(tmp_path / "absent"),
            "--cluster",
            "0",
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_workbench_session_refine_is_exact(
    store_dir, results_dir, capsys
):
    """Refining the anchor by its own query reproduces its digest."""
    import json

    from repro.engine import load_result

    result = load_result(results_dir / "result.npz")
    term = result.major_terms[0].term
    rc = main(
        [
            "workbench-session",
            "--store",
            str(store_dir),
            "--search",
            term,
            "--refine",
            term,
            "--derive",
            "keyphrases",
            "--n",
            "4",
        ]
    )
    assert rc == 0
    decoder = json.JSONDecoder()
    out = capsys.readouterr().out.strip()
    docs, pos = [], 0
    while pos < len(out):
        doc, end = decoder.raw_decode(out, pos)
        docs.append(doc)
        pos = end + 1
    by_set = {
        d["response"]["set"]: d["response"]
        for d in docs
        if d["response"].get("set")
    }
    assert by_set["refined"]["digest"] == by_set["anchor"]["digest"]
    kp = [d for d in docs if d["verb"] == "keyphrases"][0]
    assert len(kp["response"]["terms"]) <= 4


def test_workbench_session_prints_all_verbs(
    store_dir, results_dir, capsys
):
    from repro.engine import load_result

    result = load_result(results_dir / "result.npz")
    term = result.major_terms[0].term
    rc = main(
        [
            "workbench-session",
            "--store",
            str(store_dir),
            "--search",
            term,
            "--derive",
            "relations",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    for verb in ("open", "search", "relations", "close"):
        assert f'"verb": "{verb}"' in out


def test_workbench_serve_transcript_identity(store_dir, tmp_path):
    args = [
        "workbench-serve",
        "--store",
        str(store_dir),
        "--seed",
        "7",
    ]
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    assert main(args + ["--transcript", str(a)]) == 0
    assert main(args + ["--transcript", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_workbench_missing_store(tmp_path, capsys):
    rc = main(
        [
            "workbench-session",
            "--store",
            str(tmp_path / "absent"),
            "--search",
            "x",
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    rc = main(
        ["workbench-serve", "--store", str(tmp_path / "absent")]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_metrics_report_snapshot_roundtrip(
    store_dir, tmp_path, capsys
):
    snap = tmp_path / "wb.json"
    rc = main(
        [
            "workbench-serve",
            "--store",
            str(store_dir),
            "--seed",
            "3",
            "--metrics-out",
            str(snap),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    rc = main(["metrics-report", "--snapshot", str(snap)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "workbench tier (analyst sessions):" in out


def test_serve_bench_smoke(tmp_path, capsys):
    out = tmp_path / "b.json"
    rc = main(["bench", "workbench", "--out", str(out), "--update-baseline"])
    assert rc == 0
    import json

    report = json.loads(out.read_text())
    assert report["schema"] == "repro-bench/1"
    assert set(report["studies"]) == {"workbench"}
    study = report["studies"]["workbench"]
    assert set(study["points"]) == {"1", "2", "4"}
    assert study["oracles"] == {
        "transcripts_equal_across_shards": True,
        "transcript_equal_under_slowpath": True,
    }
    # a named baseline that cannot be compared against is an error
    # before any study runs, not a silent pass
    capsys.readouterr()
    missing = tmp_path / "nope.json"
    rc = main(["bench", "workbench", "--baseline", str(missing)])
    assert rc == 2
    assert f"error: {missing}: " in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(
            ["generate", "--bytes", "-5", "--out", "{tmp}/c.jsonl"],
            "--bytes", id="generate-bytes-negative",
        ),
        pytest.param(
            ["run", "--corpus", "{tmp}/c.jsonl", "--clusters", "0",
             "--out", "{tmp}/r"],
            "--clusters", id="run-clusters-zero",
        ),
        pytest.param(
            ["run", "--corpus", "{tmp}/c.jsonl", "--nprocs", "-2",
             "--out", "{tmp}/r"],
            "--nprocs", id="run-nprocs-negative",
        ),
        pytest.param(
            ["serve-build", "--results", "{tmp}/r.npz", "--shards", "0",
             "--out", "{tmp}/s"],
            "--shards", id="serve-build-shards-zero",
        ),
        pytest.param(
            ["serve-build", "--results", "{tmp}/r.npz", "--replicas", "0",
             "--out", "{tmp}/s"],
            "--replicas", id="serve-build-replicas-zero",
        ),
        pytest.param(
            ["metrics-report", "--nprocs", "0"],
            "--nprocs", id="metrics-report-nprocs-zero",
        ),
        pytest.param(
            ["themeview-slices", "--store", "{tmp}/s", "--slices", "0"],
            "--slices", id="themeview-slices-zero",
        ),
        pytest.param(
            ["themeview-slices", "--store", "{tmp}/s", "--grid", "0"],
            "--grid", id="themeview-grid-zero",
        ),
        pytest.param(
            ["themeview-slices", "--store", "{tmp}/s", "--grid", "100000"],
            "--grid", id="themeview-grid-huge",
        ),
        pytest.param(
            ["workbench-serve", "--store", "{tmp}/s", "--tenants", "0"],
            "--tenants", id="workbench-serve-tenants-zero",
        ),
        pytest.param(
            ["workbench-serve", "--store", "{tmp}/s",
             "--ops-per-session", "0"],
            "--ops-per-session", id="workbench-serve-ops-zero",
        ),
        pytest.param(
            ["workbench-serve", "--store", "{tmp}/s",
             "--max-sessions", "0"],
            "--max-sessions", id="workbench-serve-max-sessions-zero",
        ),
        pytest.param(
            ["workbench-session", "--store", "{tmp}/s", "--n", "0"],
            "--n", id="workbench-session-n-zero",
        ),
        pytest.param(
            ["facet-query", "--store", "{tmp}/s", "--kind", "terms",
             "--top", "0"],
            "--top", id="facet-query-top-zero",
        ),
        pytest.param(
            ["analyze", "--results", "{tmp}/r.npz", "--top", "-1"],
            "--top", id="analyze-top-negative",
        ),
    ],
)
def test_out_of_range_option_is_an_error_line(argv, flag, tmp_path, capsys):
    """One check in ``main`` rejects the value before the command runs:
    none of the named input files exists, and nothing is written."""
    rc = main([a.format(tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(f"error: {flag} must be >= ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def journal_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-journal") / "journal"
    rc = main(
        [
            "ingest-feed",
            "--journal",
            str(path),
            "--dataset",
            "pubmed",
            "--batches",
            "2",
            "--batch-docs",
            "4",
            "--seed",
            "4",
            "--themes",
            "4",
            "--skip-docs",
            "30",
            "--start-doc-id",
            "30",
        ]
    )
    assert rc == 0
    return path


def test_ingest_feed_creates_journal(journal_dir, capsys):
    assert (journal_dir / "JOURNAL.json").exists()
    from repro.ingest import IngestJournal

    journal = IngestJournal.open(journal_dir)
    assert len(journal) == 2
    assert journal.n_docs == 8


def test_ingest_feed_appends_after_last_arrival(journal_dir, capsys):
    rc = main(
        [
            "ingest-feed",
            "--journal",
            str(journal_dir),
            "--batches",
            "1",
            "--batch-docs",
            "4",
            "--seed",
            "4",
            "--themes",
            "4",
            "--skip-docs",
            "38",
            "--start-doc-id",
            "38",
        ]
    )
    assert rc == 0
    from repro.ingest import IngestJournal

    journal = IngestJournal.open(journal_dir)
    assert len(journal) == 3
    arrivals = [b.arrival_s for b in journal.batches]
    assert arrivals == sorted(arrivals)


@pytest.fixture()
def mutable_store(corpus_file, results_dir, tmp_path):
    out = tmp_path / "store"
    rc = main(
        [
            "serve-build",
            "--results",
            str(results_dir / "result.npz"),
            "--corpus",
            str(corpus_file),
            "--shards",
            "2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out


def test_ingest_publish_status_compact(
    mutable_store, results_dir, journal_dir, capsys
):
    results = str(results_dir / "result.npz")
    rc = main(
        [
            "ingest-publish",
            "--store",
            str(mutable_store),
            "--results",
            results,
            "--journal",
            str(journal_dir),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "generation 1" in out

    # replay is idempotent: already-published batches are skipped
    rc = main(
        [
            "ingest-publish",
            "--store",
            str(mutable_store),
            "--results",
            results,
            "--journal",
            str(journal_dir),
        ]
    )
    assert rc == 0
    assert "nothing to publish" in capsys.readouterr().out

    from repro.ingest import IngestJournal

    n_batches = len(IngestJournal.open(journal_dir))
    rc = main(["ingest-status", "--store", str(mutable_store)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert f"ingested batches: {n_batches}" in out

    from repro.serve import load_manifest

    has_deltas = bool(load_manifest(mutable_store).deltas)
    rc = main(["ingest-compact", "--store", str(mutable_store)])
    assert rc == 0
    expect = "compacted" if has_deltas else "nothing to do"
    assert expect in capsys.readouterr().out
    # a second pass always finds a fully-compacted store
    rc = main(["ingest-compact", "--store", str(mutable_store)])
    assert rc == 0
    assert "nothing to do" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, bad",
    [
        pytest.param(
            ["analyze", "--results", "{missing}"], "missing",
            id="analyze-missing-results",
        ),
        pytest.param(
            ["analyze", "--results", "{text}"], "text",
            id="analyze-non-npz-results",
        ),
        pytest.param(
            ["serve-build", "--results", "{missing}", "--out", "{tmp}/s"],
            "missing",
            id="serve-build-missing-results",
        ),
        pytest.param(
            ["serve-build", "--results", "{text}", "--out", "{tmp}/s"],
            "text",
            id="serve-build-non-npz-results",
        ),
        pytest.param(
            ["run", "--corpus", "{corpus}", "--out", "{tmp}/r"], "corpus",
            id="run-missing-corpus",
        ),
        pytest.param(
            ["ingest-publish", "--store", "{store}", "--journal",
             "{journal}", "--results", "{text}"],
            "text",
            id="ingest-publish-bad-results",
        ),
        pytest.param(
            ["metrics-report", "--snapshot", "{dict}"], "dict",
            id="metrics-report-foreign-dict",
        ),
        pytest.param(
            ["metrics-report", "--snapshot", "{list}"], "list",
            id="metrics-report-foreign-list",
        ),
    ],
)
def test_bad_input_file_is_an_error_line(
    argv, bad, tmp_path, store_dir, journal_dir, capsys
):
    paths = {
        "tmp": tmp_path,
        "missing": tmp_path / "missing.npz",
        "text": tmp_path / "not-an-archive.npz",
        "corpus": tmp_path / "missing.jsonl",
        "dict": tmp_path / "dict.json",
        "list": tmp_path / "list.json",
        "store": store_dir,
        "journal": journal_dir,
    }
    paths["text"].write_text("plain text, not a saved result\n")
    paths["dict"].write_text('{"a": 1}\n')
    paths["list"].write_text("[1, 2]\n")
    rc = main([a.format(**paths) for a in argv])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[bad]}")
    assert "Traceback" not in err
    assert err.count("\n") == 1


def test_ingest_status_rejects_corrupt_store(tmp_path, capsys):
    rc = main(["ingest-status", "--store", str(tmp_path / "nope")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bench_ingest_smoke(tmp_path, capsys):
    out = tmp_path / "b.json"
    rc = main(["bench", "ingest", "--out", str(out), "--update-baseline"])
    assert rc == 0
    import json

    report = json.loads(out.read_text())
    assert set(report["studies"]) == {"ingest"}
    study = report["studies"]["ingest"]
    assert study["points"]["1"]["docs_ingested"] == 40
    assert all(study["oracles"].values())
    # rerun against the file just written: exit status is the check
    again = tmp_path / "b2.json"
    rc = main(
        ["bench", "ingest", "--baseline", str(out), "--out", str(again)]
    )
    assert rc == 0
    baseline = json.loads(again.read_text())["baseline"]
    assert baseline == {
        "commit": report["commit"],
        "drift": [],
        "uncompared": [],
    }


@pytest.fixture(scope="module")
def stamped_cli_store(tmp_path_factory):
    """generate --facet-sources -> run -> serve-build, end to end."""
    base = tmp_path_factory.mktemp("cli-facets")
    corpus = base / "corpus.jsonl"
    rc = main(
        [
            "generate",
            "--dataset",
            "pubmed",
            "--bytes",
            "60000",
            "--seed",
            "5",
            "--themes",
            "4",
            "--facet-sources",
            "3",
            "--out",
            str(corpus),
        ]
    )
    assert rc == 0
    results = base / "results"
    rc = main(
        [
            "run",
            "--corpus",
            str(corpus),
            "--nprocs",
            "2",
            "--clusters",
            "4",
            "--major-terms",
            "120",
            "--out",
            str(results),
        ]
    )
    assert rc == 0
    store = base / "store"
    rc = main(
        [
            "serve-build",
            "--results",
            str(results / "result.npz"),
            "--corpus",
            str(corpus),
            "--shards",
            "2",
            "--out",
            str(store),
        ]
    )
    assert rc == 0
    return store


def test_serve_build_reports_stamped_store(stamped_cli_store):
    from repro.serve import load_manifest

    manifest = load_manifest(stamped_cli_store)
    assert manifest.facets is not None
    assert manifest.facets.n_sources == 3


def test_facet_query_counts(stamped_cli_store, capsys):
    import json

    rc = main(
        [
            "facet-query",
            "--store",
            str(stamped_cli_store),
            "--kind",
            "counts",
        ]
    )
    assert rc == 0
    resp = json.loads(capsys.readouterr().out)
    assert resp["kind"] == "facet_counts"
    assert len(resp["counts"]) == 3
    assert resp["total"] == sum(resp["counts"]) > 0


def test_facet_query_terms_window(stamped_cli_store, capsys):
    import json

    rc = main(
        [
            "facet-query",
            "--store",
            str(stamped_cli_store),
            "--kind",
            "terms",
            "--t0",
            "0",
            "--t1",
            "300",
            "--top",
            "5",
        ]
    )
    assert rc == 0
    resp = json.loads(capsys.readouterr().out)
    assert resp["kind"] == "window_terms"
    assert len(resp["terms"]) <= 5


def test_facet_query_rejects_unstamped_store(store_dir, capsys):
    rc = main(
        [
            "facet-query",
            "--store",
            str(store_dir),
            "--kind",
            "counts",
        ]
    )
    assert rc == 1
    assert "not stamped" in capsys.readouterr().err


def test_themeview_slices_writes_payload(
    stamped_cli_store, tmp_path, capsys
):
    import json

    out = tmp_path / "slices.json"
    rc = main(
        [
            "themeview-slices",
            "--store",
            str(stamped_cli_store),
            "--slices",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 3
    assert any(s["n_docs"] > 0 for s in payload)


def test_themeview_slices_rejects_unstamped_store(store_dir, capsys):
    rc = main(
        ["themeview-slices", "--store", str(store_dir)]
    )
    assert rc == 1
    assert "not stamped" in capsys.readouterr().err
