//! Aligner demo: use the Bowtie substrate directly.
//!
//! ```text
//! cargo run --release -p trinity --example align_reads
//! ```
//!
//! Builds an FM-index over a few contigs, aligns reads (exact and with
//! mismatches, both strands) and prints the SAM lines — the per-rank step
//! of the paper's distributed Bowtie.

use bowtie::align::{align_read, AlignConfig};
use bowtie::fmindex::FmIndex;
use bowtie::sam::SamRecord;
use seqio::alphabet::revcomp;
use seqio::fasta::Record;

fn main() {
    let contigs = vec![
        Record::new(
            "contig_0",
            b"CGAGTCGGTTATCTTCGGATACTGTATAGTCCCACCTGGT".to_vec(),
        ),
        Record::new(
            "contig_1",
            b"AAAGCGGCACTTGTGAAGTGTTCCCCACGCCGCTTGGGTC".to_vec(),
        ),
        Record::new(
            "contig_2",
            b"CCATACCAAGAGGTAGTAGTCTCAGAATCTTGCGGGTACA".to_vec(),
        ),
    ];
    let index = FmIndex::build(&contigs);
    println!(
        "indexed {} contigs, {} bases\n",
        index.contig_count(),
        index.total_bases()
    );

    // Reads: exact, reverse-complement, one mismatch, and junk.
    let mut mism = contigs[1].seq[4..24].to_vec();
    mism[10] = b'T';
    let reads = vec![
        Record::new("exact/1", contigs[0].seq[..20].to_vec()),
        Record::new("revcomp/1", revcomp(&contigs[2].seq[10..30])),
        Record::new("mismatch/1", mism),
        Record::new("junk/1", b"TTTTTTTTTTTTTTTTTTTT".to_vec()),
    ];

    let cfg = AlignConfig { max_mismatches: 1 };
    for read in &reads {
        let hits = align_read(&index, &read.seq, cfg);
        if hits.is_empty() {
            println!("{}", SamRecord::unmapped(&read.id).to_line());
        }
        for h in hits {
            let rec = SamRecord::from_alignment(&read.id, index.contig_name(h.contig), &h);
            println!("{}", rec.to_line());
        }
    }
}
