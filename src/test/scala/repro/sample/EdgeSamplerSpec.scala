package repro.sample

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.{TestGens, TestRefs}
import repro.graph.GraphGen
import repro.prob.{Constant, ProbModel, UniformHash, WIC}
import repro.util.Rand

class ProbModelSpec extends AnyFunSuite {

  test("Constant returns p for every edge") {
    val m = Constant(0.37)
    assert(m.prob(1, 2) == 0.37 && m.prob(100, 5) == 0.37)
  }

  test("Constant rejects out-of-range p") {
    intercept[IllegalArgumentException](Constant(1.5))
    intercept[IllegalArgumentException](Constant(-0.1))
  }

  test("UniformHash is symmetric, in range, and varies per edge") {
    val m = UniformHash(0.1, 0.3)
    val ps = for (u <- 0 until 50; v <- u + 1 until 50) yield m.prob(u, v)
    assert(ps.forall(p => p >= 0.1 && p < 0.3))
    assert(ps.distinct.size > ps.size / 2)
    assert(m.prob(3, 9) == m.prob(9, 3))
  }

  test("UniformHash empirical mean is the interval midpoint") {
    val m = UniformHash(0.0, 0.1)
    val ps = for (u <- 0 until 200; v <- u + 1 until 200) yield m.prob(u, v)
    assert(math.abs(ps.sum / ps.size - 0.05) < 0.002)
  }

  test("WIC gives 2/(du+dv), capped at 1") {
    val g = TestGens.star(5) // center degree 4, leaves degree 1
    val m = WIC.of(g)
    assert(math.abs(m.prob(0, 1) - 2.0 / 5) < 1e-12)
    assert(m.prob(1, 2) == 1.0) // two degree-1 vertices (not an edge, still defined)
  }

  test("threshold is floor(p * 2^53) and agrees with the double test at the boundary") {
    val twoTo53 = 9007199254740992L
    assert(1.1102230246251565e-16 == math.pow(2, -53)) // the factor of Rand.hash01
    assert(ProbModel.threshold(0.0) == 0L && ProbModel.threshold(1.0) == twoTo53)
    assert(ProbModel.threshold(0.5) == twoTo53 / 2)
    assert(ProbModel.threshold(Double.MinPositiveValue) == 0L)
    val rng = new Rand.Pcg(5)
    val ps = Seq(0.02, 0.2, 0.3, 1.0 / 3, math.nextDown(1.0), Double.MinPositiveValue) ++
      Seq.fill(2000)(rng.nextDouble()) ++ Seq.fill(500)(rng.nextDouble() * 1e-12)
    ps.foreach { p =>
      val t = ProbModel.threshold(p)
      Seq(t - 1, t, t + 1).filter(h => h >= 0 && h < twoTo53).foreach { h =>
        assert((h <= t) == (h * 1.1102230246251565e-16 <= p), s"p=$p h=$h t=$t")
      }
    }
  }

  test("threshold(u, v) of every model is ProbModel.threshold(prob(u, v))") {
    val g = GraphGen.rmat(256, 1500, seed = 22)
    Seq(Constant(0.02), Constant(1.0), UniformHash(0.0, 0.3), WIC.of(g)).foreach { m =>
      g.edgeList.foreach { case (u, v) =>
        assert(m.threshold(u, v) == ProbModel.threshold(m.prob(u, v)), s"${m.label} ($u, $v)")
      }
    }
  }

  test("WIC is symmetric") {
    val g = GraphGen.rmat(256, 1500, seed = 21)
    val m = WIC.of(g)
    g.edgeList.foreach { case (u, v) => assert(m.prob(u, v) == m.prob(v, u)) }
  }
}

class EdgeSamplerSpec extends AnyFunSuite {

  test("sampling is deterministic in (edge, sketch)") {
    val s = EdgeSampler.forSketches(Constant(0.5))
    (0 until 100).foreach { i =>
      assert(s.sample(i, i + 1, 3) == s.sample(i, i + 1, 3))
    }
  }

  test("sampling is symmetric in (u, v)") {
    val s = EdgeSampler.forSketches(Constant(0.5))
    for (u <- 0 until 40; v <- u + 1 until 40; r <- 0 until 3)
      assert(s.sample(u, v, r) == s.sample(v, u, r))
  }

  test("different sketches sample differently") {
    val s = EdgeSampler.forSketches(Constant(0.5))
    val a = (0 until 200).map(i => s.sample(i, i + 1, 0))
    val b = (0 until 200).map(i => s.sample(i, i + 1, 1))
    assert(a != b)
  }

  test("different salts (sketch vs eval vs RIS) are independent draws") {
    val m = Constant(0.5)
    val a = (0 until 300).map(i => EdgeSampler.forSketches(m).sample(i, i + 1, 0))
    val b = (0 until 300).map(i => EdgeSampler.forEval(m).sample(i, i + 1, 0))
    val c = (0 until 300).map(i => EdgeSampler.forRis(m).sample(i, i + 1, 0))
    assert(a != b && b != c && a != c)
  }

  test("empirical sampling rate matches p") {
    val s = EdgeSampler.forSketches(Constant(0.2))
    var hits = 0
    val trials = 50000
    var i = 0
    while (i < trials) { if (s.sample(i, i + 1, 7)) hits += 1; i += 1 }
    assert(math.abs(hits.toDouble / trials - 0.2) < 0.01, s"rate=${hits.toDouble / trials}")
  }

  test("empirical rate matches per-edge UniformHash probabilities") {
    val m = UniformHash(0.0, 1.0)
    val s = EdgeSampler.forSketches(m)
    // For a fixed edge, the rate over many sketches must approach p_e.
    (0 until 5).foreach { e =>
      val p = m.prob(e, e + 1)
      val rate = (0 until 20000).count(r => s.sample(e, e + 1, r)).toDouble / 20000
      assert(math.abs(rate - p) < 0.02, s"edge $e: p=$p rate=$rate")
    }
  }

  test("sample and sampleSalted(saltOf(r)) equal the reference draw over a sweep of (edge, r)") {
    val g = GraphGen.rmat(1024, 6000, seed = 62)
    val edges = g.edgeList
    val rs = (0 until 14) ++ Seq(1 << 20, Int.MaxValue - 1023, Int.MaxValue)
    assert(edges.length.toLong * rs.length >= 100000L)
    val models = Seq(Constant(0.0), Constant(0.02), Constant(0.2), Constant(0.5), Constant(1.0),
                     UniformHash(0.0, 0.3), UniformHash(0.0, 1.0), WIC.of(g))
    val salts = Seq(EdgeSampler.SketchSalt, EdgeSampler.EvalSalt, EdgeSampler.RisSalt)
    for (m <- models; salt <- salts) {
      val s = new EdgeSampler(m, salt)
      var hits = 0L
      rs.foreach { r =>
        val rsalt = s.saltOf(r)
        edges.foreach { case (u, v) =>
          val ref = TestRefs.sampleRef(s, u, v, r)
          if (s.sample(u, v, r) != ref || s.sampleSalted(v, u, rsalt) != ref)
            fail(s"${m.label} salt=$salt r=$r ($u, $v): reference $ref")
          if (ref) hits += 1
        }
      }
      if (m == Constant(0.0)) assert(hits == 0L)
      if (m == Constant(1.0)) assert(hits == edges.length.toLong * rs.length)
    }
  }

  test("sampleBlock keeps exactly the candidate graphs that sampleSalted keeps") {
    val cases = for {
      n <- Gen.choose(2, 30)
      g <- TestGens.graph(n)
      m <- TestGens.model(g)
      salt <- Gen.oneOf(EdgeSampler.SketchSalt, EdgeSampler.EvalSalt, EdgeSampler.RisSalt)
      b <- Gen.oneOf(Gen.choose(1, 64), Gen.const(64))
      r0 <- Gen.oneOf(Gen.choose(0, 1000), Gen.const(Int.MaxValue - 64))
      pairs <- Gen.listOfN(8, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
      random <- Gen.long
    } yield (new EdgeSampler(m, salt), b, r0, pairs, random)
    val prop = Prop.forAllNoShrink(cases) { case (s, b, r0, pairs, random) =>
      val full = -1L >>> (64 - b)
      val salts = s.saltsOf(r0, b)
      val saltsOk = salts.toSeq == (0 until b).map(j => s.saltOf(r0 + j))
      val bad = for {
        (u, v) <- pairs
        cand <- Seq(0L, full, random & full)
        expect = (0 until b).foldLeft(0L) { (acc, j) =>
          if ((cand >>> j & 1L) != 0L && s.sampleSalted(u, v, s.saltOf(r0 + j))) acc | 1L << j else acc
        }
        got = s.sampleBlock(u, v, salts, cand)
        if got != expect
      } yield f"($u, $v) cand=$cand%x: got $got%x, expected $expect%x"
      (saltsOk && bad.isEmpty) :| s"${s.model.label} salt=${s.salt} b=$b r0=$r0 ${bad.mkString("; ")}"
    }
    TestGens.check(prop, 300)
  }

  test("sampleChunk masks keep exactly the graphs that sampleSalted keeps, for every edge and lane") {
    val c = EdgeSampler.ChunkSize
    val cases = for {
      n <- Gen.choose(2, 30)
      g <- TestGens.graph(n)
      m <- TestGens.model(g)
      salt <- Gen.oneOf(EdgeSampler.SketchSalt, EdgeSampler.EvalSalt, EdgeSampler.RisSalt)
      b <- Gen.oneOf(Gen.choose(1, 64), Gen.const(64))
      r0 <- Gen.oneOf(Gen.choose(0, 1000), Gen.const(Int.MaxValue - 64))
      len <- Gen.oneOf(0, 1, c - 1, c, c + 1)
      edges <- Gen.listOfN(len, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
    } yield (new EdgeSampler(m, salt), b, r0, edges.toVector)
    // One chunk for every case, so each draw runs over a previous case's masks.
    val chunk = new EdgeSampler.Chunk
    val prop = Prop.forAllNoShrink(cases) { case (s, b, r0, edges) =>
      val salts = s.saltsOf(r0, b)
      // Chunks as a scan fills them: a full one, then the rest.
      val got = edges.grouped(c).flatMap { part =>
        chunk.len = 0
        part.foreach { case (u, v) => chunk.add(u, v) }
        assert(chunk.full == (part.length == c))
        s.sampleChunk(chunk, salts)
        chunk.mask.take(part.length)
      }.toVector
      val bad = edges.indices.flatMap { i =>
        val (u, v) = edges(i)
        val expect = (0 until b).foldLeft(0L) { (acc, j) =>
          if (s.sampleSalted(u, v, s.saltOf(r0 + j))) acc | 1L << j else acc
        }
        if (got(i) == expect) None else Some(f"edge $i ($u, $v): got ${got(i)}%x, expected $expect%x")
      }
      (got.length == edges.length && bad.isEmpty) :|
        s"${s.model.label} salt=${s.salt} b=$b r0=$r0 edges=${edges.length} ${bad.take(4).mkString("; ")}"
    }
    TestGens.check(prop, 300)
  }

  test("sampleChunk rejects blocks of 0 and of more than 64 graphs") {
    val s = EdgeSampler.forSketches(Constant(0.5))
    val chunk = new EdgeSampler.Chunk
    chunk.add(0, 1)
    intercept[IllegalArgumentException](s.sampleChunk(chunk, Array.emptyLongArray))
    intercept[IllegalArgumentException](s.sampleChunk(chunk, s.saltsOf(0, 65)))
  }

  test("golden: sampled edges of a fixed R-MAT graph for r in 0..7") {
    // Count and XOR of the sampled (edge, r) pairs, each edge key tagged with
    // r in bits 58..60; recorded from the hash01-and-double form of the sampler.
    val g = GraphGen.rmat(1024, 6000, seed = 61)
    assert(g.m == 5943)
    val golden = Seq(
      Constant(0.1) -> (4819L, 0x100002900000027cL),
      UniformHash(0.0, 0.3) -> (7200L, 0x000003f2000003d8L),
      WIC.of(g) -> (1329L, 0x0800014a000003a7L),
    )
    golden.foreach { case (m, expect) =>
      val s = EdgeSampler.forSketches(m)
      var count = 0L
      var xor = 0L
      for (r <- 0 until 8; (u, v) <- g.edgeList) if (s.sample(u, v, r)) {
        count += 1
        xor ^= Rand.edgeKey(u, v) ^ (r.toLong << 58)
      }
      assert((count, xor) == expect, m.label)
    }
  }

  test("p=0 never samples; p=1 always samples") {
    val zero = EdgeSampler.forSketches(Constant(0.0))
    val one = EdgeSampler.forSketches(Constant(1.0))
    (0 until 1000).foreach { i =>
      assert(!zero.sample(i, i + 1, 0)) // P[hash == 0.0 exactly] ~ 2^-53
      assert(one.sample(i, i + 1, 0))
    }
  }
}
