//! Snapshot bytes and digests pinned as constants: a change of storage
//! layout must not move a byte of what a set or a tree writes, nor a bit
//! of what it answers.
//!
//! Each case grows a set (or a tree) through the ingest paths holdings
//! run, then pins the length and CRC-32 of its snapshot and its
//! `answers_digest`. The sets cover 1, 15, 16, 17 and 37 streams (one
//! block of sixteen, its edges, and a ragged third block), budgets 1, 4,
//! 5 and 8 (inline, inline at the limit, heap and heap at a power of
//! two), at a cold clock, a warming one, a steady one and one that no
//! tile aligns to. The two tree cases are a grown tree and a tree
//! restored by hand whose summaries store fewer coefficients than the
//! budget; it is pinned again after it ingests more values, so the merge
//! of short children is pinned too.

use swat_tree::codec::{crc32, write_frame};
use swat_tree::{StreamSet, SwatConfig, SwatTree};

const WINDOW: usize = 64;

/// Cold (t = 3), warming (N < t < 2N), steady, and unaligned
/// (t ≡ 37 mod 64).
const CLOCKS: [usize; 4] = [3, 100, 256, 293];

/// `(streams, k, clock, snapshot length, snapshot CRC-32, digest)`.
type Case = (usize, usize, usize, usize, u32, u64);

/// A deterministic value with signed zeros and mixed magnitudes.
fn value(row: usize, stream: usize) -> f64 {
    let i = row * 131 + stream * 17;
    match i % 11 {
        0 => 0.0,
        1 => -0.0,
        _ => ((i * 2_654_435_761) % 10_007) as f64 * 0.037 - 180.0,
    }
}

fn rows(from: usize, to: usize, streams: usize) -> Vec<f64> {
    (from..to)
        .flat_map(|r| (0..streams).map(move |s| value(r, s)))
        .collect()
}

/// A set at `clock`: tiles through `extend_rows`, the last few rows one
/// at a time through `push_row`.
fn grown_set(streams: usize, k: usize, clock: usize) -> StreamSet {
    let config = SwatConfig::with_coefficients(WINDOW, k).unwrap();
    let mut set = StreamSet::new(config, streams);
    let tiled = clock - clock % 64;
    set.extend_rows(&rows(0, tiled, streams));
    for r in tiled..clock {
        set.push_row(&rows(r, r + 1, streams));
    }
    set
}

fn pin(bytes: &[u8], digest: u64) -> (usize, u32, u64) {
    (bytes.len(), crc32(bytes), digest)
}

/// A SWAT v2 tree snapshot of `tree` whose level-`l` summaries keep only
/// `1 + l % 2` of their coefficients (fewer than the budget from level 1
/// on, for budgets above 2).
fn short_body(tree: &SwatTree) -> Vec<u8> {
    let config = tree.config();
    let mut out = b"SWAT".to_vec();
    out.push(2);
    let mut payload = Vec::new();
    for word in [config.window(), config.coefficients(), config.min_level()] {
        payload.extend_from_slice(&(word as u64).to_le_bytes());
    }
    write_frame(&mut out, 1, &payload);
    payload.clear();
    payload.extend_from_slice(&tree.arrivals().to_le_bytes());
    payload.push(1);
    payload.extend_from_slice(&tree.newest().unwrap().to_le_bytes());
    write_frame(&mut out, 2, &payload);
    payload.clear();
    let nodes: Vec<_> = tree.nodes().collect();
    payload.extend_from_slice(&(nodes.len() as u64).to_le_bytes());
    for (level, _, s) in nodes {
        payload.extend_from_slice(&(level as u64).to_le_bytes());
        payload.extend_from_slice(&s.created_at().to_le_bytes());
        payload.extend_from_slice(&s.range().lo().to_le_bytes());
        payload.extend_from_slice(&s.range().hi().to_le_bytes());
        let keep = &s.coeffs().coefficients()[..1 + level % 2];
        payload.extend_from_slice(&(keep.len() as u64).to_le_bytes());
        for c in keep {
            payload.extend_from_slice(&c.to_le_bytes());
        }
    }
    write_frame(&mut out, 3, &payload);
    out
}

#[rustfmt::skip]
const SETS: &[Case] = &[
    (1, 1, 3, 223, 4057893953, 5638373674789011507),
    (1, 1, 100, 895, 1862318682, 6848062070224209058),
    (1, 1, 256, 895, 1472671303, 9624346271303644869),
    (1, 1, 293, 895, 2030534332, 1363705961102342481),
    (1, 4, 3, 239, 53034395, 1013034603640026004),
    (1, 4, 100, 1231, 1665581719, 15083037390155674234),
    (1, 4, 256, 1231, 1567364020, 13367422061361831690),
    (1, 4, 293, 1231, 181234352, 5657702019328650190),
    (1, 5, 3, 239, 2060859075, 2338098336344211105),
    (1, 5, 100, 1311, 1731930937, 17948368483969450270),
    (1, 5, 256, 1311, 388938818, 1907199258611186170),
    (1, 5, 293, 1311, 685006642, 2109466364025228983),
    (1, 8, 3, 239, 1186873592, 1884985442538458520),
    (1, 8, 100, 1551, 3480086858, 4160172549438156938),
    (1, 8, 256, 1551, 178326686, 7115693129156727288),
    (1, 8, 293, 1551, 47637065, 3799078961095346159),
    (15, 1, 3, 2827, 1322129781, 14912669426155346881),
    (15, 1, 100, 12907, 3931305129, 7194897990212875639),
    (15, 1, 256, 12907, 3962470651, 10556802227460042228),
    (15, 1, 293, 12907, 4156092983, 10146039525421359706),
    (15, 4, 3, 3067, 2356893535, 14370296295198667326),
    (15, 4, 100, 17947, 4126610287, 17824807722417966753),
    (15, 4, 256, 17947, 3319167036, 3192150726547791365),
    (15, 4, 293, 17947, 1733566126, 7262751620399789640),
    (15, 5, 3, 3067, 2559036842, 3950504424205137989),
    (15, 5, 100, 19147, 2421275936, 8575805123767766491),
    (15, 5, 256, 19147, 609339514, 17433034842467247880),
    (15, 5, 293, 19147, 4017163200, 1382600231836082509),
    (15, 8, 3, 3067, 2020469539, 2690379305394775050),
    (15, 8, 100, 22747, 3376910128, 8004341297459856499),
    (15, 8, 256, 22747, 636085405, 16387000674198019477),
    (15, 8, 293, 22747, 3415129825, 10229844531619810754),
    (16, 1, 3, 3013, 3811889934, 2988530446221474289),
    (16, 1, 100, 13765, 1975205196, 14522931061588877313),
    (16, 1, 256, 13765, 3800377866, 1544769787963747598),
    (16, 1, 293, 13765, 3059255275, 10219653504541816999),
    (16, 4, 3, 3269, 1838931234, 13497469546050030165),
    (16, 4, 100, 19141, 4244293506, 1532305769999397277),
    (16, 4, 256, 19141, 4011184860, 2594021091446532197),
    (16, 4, 293, 19141, 1869667589, 9108998618214392378),
    (16, 5, 3, 3269, 2798810422, 2956189682310183637),
    (16, 5, 100, 20421, 31966558, 9419013957392777367),
    (16, 5, 256, 20421, 620680240, 9743075287472283352),
    (16, 5, 293, 20421, 3207729889, 7278127159988718025),
    (16, 8, 3, 3269, 447163925, 570841967008726773),
    (16, 8, 100, 24261, 1803016941, 4007585529221629615),
    (16, 8, 256, 24261, 1338775217, 15069860455581038890),
    (16, 8, 293, 24261, 632418667, 9244338853220297228),
    (17, 1, 3, 3199, 1298040694, 5623174842759991493),
    (17, 1, 100, 14623, 1559160519, 14137197340632549588),
    (17, 1, 256, 14623, 3498350654, 7568481668338174760),
    (17, 1, 293, 14623, 2229411666, 6048291197910935070),
    (17, 4, 3, 3471, 477903194, 5897957418563635514),
    (17, 4, 100, 20335, 3525937554, 322733271319878243),
    (17, 4, 256, 20335, 2055621758, 14019004584839838296),
    (17, 4, 293, 20335, 2070845831, 17855410032212868776),
    (17, 5, 3, 3471, 4192723690, 11928441137444587335),
    (17, 5, 100, 21695, 1815677304, 4381775174498434561),
    (17, 5, 256, 21695, 1204011792, 5859860897645754322),
    (17, 5, 293, 21695, 4001295916, 12172301431761461229),
    (17, 8, 3, 3471, 2112593820, 6496096213551644614),
    (17, 8, 100, 25775, 1886927492, 13663561986495723105),
    (17, 8, 256, 25775, 2925551342, 12194822528567302434),
    (17, 8, 293, 25775, 3681735746, 16776190863423695825),
    (37, 1, 3, 6919, 2837496152, 4602692581466798287),
    (37, 1, 100, 31783, 1463851305, 1871163406284912952),
    (37, 1, 256, 31783, 3586956172, 14297025907810271783),
    (37, 1, 293, 31783, 2448918311, 17859521407548616043),
    (37, 4, 3, 7511, 1778089466, 15667351375730559329),
    (37, 4, 100, 44215, 3325782314, 521969857355236057),
    (37, 4, 256, 44215, 3249600862, 12498006690319874607),
    (37, 4, 293, 44215, 3455588498, 12914060368531254311),
    (37, 5, 3, 7511, 3739983467, 851323183572126880),
    (37, 5, 100, 47175, 3163045074, 16341020200422543210),
    (37, 5, 256, 47175, 2406870905, 11791642962722294772),
    (37, 5, 293, 47175, 4180663574, 13623152210854762820),
    (37, 8, 3, 7511, 1627125298, 8479445976376892013),
    (37, 8, 100, 56055, 1946041453, 5979479640058591664),
    (37, 8, 256, 56055, 3875579122, 16985464548876587939),
    (37, 8, 293, 56055, 909143498, 10007045469855277166),
];

const TREES: &[(usize, u32, u64)] = &[
    (1265, 1766178704, 7964003249056846856),
    (905, 3064473976, 3203877633382385403),
    (1233, 3126787445, 4255636542664135134),
    (1265, 4043021057, 17735757500629149164),
];

#[test]
fn set_snapshots_and_digests_are_pinned() {
    let mut got = Vec::new();
    for streams in [1, 15, 16, 17, 37] {
        for k in [1, 4, 5, 8] {
            for clock in CLOCKS {
                let set = grown_set(streams, k, clock);
                let bytes = set.snapshot();
                let (len, crc, digest) = pin(&bytes, set.answers_digest());
                got.push((streams, k, clock, len, crc, digest));
                // What is pinned restores to the same digest.
                let restored = StreamSet::restore(&bytes).unwrap();
                assert_eq!(restored.answers_digest(), digest);
            }
        }
    }
    assert_eq!(got, SETS);
}

#[test]
fn tree_snapshots_and_digests_are_pinned() {
    let config = SwatConfig::with_coefficients(WINDOW, 5).unwrap();
    let column: Vec<f64> = (0..293).map(|r| value(r, 3)).collect();
    let mut grown = SwatTree::new(config);
    grown.push_batch(&column[..256]);
    for &v in &column[256..] {
        grown.push(v);
    }
    let mut hand = SwatTree::restore(&short_body(&grown)).unwrap();
    let mut got = vec![
        pin(&grown.snapshot(), grown.answers_digest()),
        pin(&hand.snapshot(), hand.answers_digest()),
    ];
    let more: Vec<f64> = (293..293 + 200).map(|r| value(r, 5)).collect();
    hand.push_batch(&more[..35]);
    got.push(pin(&hand.snapshot(), hand.answers_digest()));
    hand.push_batch(&more[35..]);
    got.push(pin(&hand.snapshot(), hand.answers_digest()));
    assert_eq!(got, TREES);
}
