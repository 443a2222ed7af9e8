#!/usr/bin/env python
"""Full pipeline with source files on disk and exported visualizations.

Demonstrates the engine as a downstream user would deploy it:

1. write a mixed corpus to ``.jsonl`` source files,
2. run the *parallel* engine over the files (8 simulated processors,
   each scanning its own share of the sources),
3. export the ThemeView terrain as PGM image + JSON, and the document
   coordinates as CSV -- "the final primary product of the text
   engine" (paper §2.1, step 9).

Run:  python examples/themeview_export.py [output_dir]
"""

import sys
from pathlib import Path

from repro.datasets import generate_pubmed, generate_trec
from repro.engine import EngineConfig, ParallelTextEngine
from repro.text import write_corpus
from repro.viz import (
    build_themeview,
    export_json,
    labels_from_result,
    render_ascii,
    write_pgm,
    write_svg,
)


def main(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)

    # 1. sources on disk
    med = generate_pubmed(120_000, seed=3, n_themes=5)
    web = generate_trec(120_000, seed=3, n_themes=5)
    write_corpus(med, out_dir / "sources" / "pubmed.jsonl")
    write_corpus(web, out_dir / "sources" / "gov2.jsonl")
    print(f"wrote source files under {out_dir / 'sources'}")

    # 2. scan the sources and process on 8 simulated processors
    sources = [
        out_dir / "sources" / "pubmed.jsonl",
        out_dir / "sources" / "gov2.jsonl",
    ]
    config = EngineConfig(n_major_terms=400, n_clusters=8)
    result = ParallelTextEngine(8, config=config).run_files(
        sources, corpus_name="mixed-sources"
    )
    print(f"scanned {result.n_docs} documents from {len(sources)} files")
    print(result.summary())

    # 3. exports
    view = build_themeview(
        result.coords,
        result.assignments,
        cluster_labels=labels_from_result(result),
        grid=64,
    )
    write_pgm(view, out_dir / "themeview.pgm")
    export_json(view, out_dir / "themeview.json")
    write_svg(
        result.coords,
        out_dir / "themeview.svg",
        assignments=result.assignments,
        view=view,
    )
    csv_path = out_dir / "coordinates.csv"
    with csv_path.open("w") as f:
        f.write("doc_id,x,y,cluster\n")
        for doc_id, (x, y), c in zip(
            result.doc_ids, result.coords, result.assignments
        ):
            f.write(f"{doc_id},{x:.6f},{y:.6f},{c}\n")
    print(f"exported: {out_dir / 'themeview.pgm'}")
    print(f"          {out_dir / 'themeview.svg'}")
    print(f"          {out_dir / 'themeview.json'}")
    print(f"          {csv_path}")

    print("\nterrain preview:")
    small = build_themeview(
        result.coords,
        result.assignments,
        cluster_labels=labels_from_result(result),
        grid=40,
    )
    print(render_ascii(small))


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        "examples/output"
    )
    main(target)
