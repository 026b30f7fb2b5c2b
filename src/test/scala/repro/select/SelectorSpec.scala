package repro.select

import org.scalatest.funsuite.AnyFunSuite
import repro.{TestGens, TestRefs}
import repro.core.PaCIM
import repro.graph.{CSRGraph, GraphGen}
import repro.prob.{Constant, ProbModel, UniformHash}
import repro.sample.EdgeSampler
import repro.sketch.SketchBuilder

class SelectorSpec extends AnyFunSuite {

  private def selectors = Seq(
    new CelfSelector(),
    new PTreeSelector(),
    new WinTreeSelector(),
  )

  private def cases: Seq[(String, CSRGraph, ProbModel, Int)] = Seq(
    ("er-dense", TestGens.erdosRenyi(150, 500, seed = 51), Constant(0.3), 10),
    ("er-sparse", TestGens.erdosRenyi(200, 250, seed = 52), Constant(0.5), 12),
    ("rmat", GraphGen.rmat(256, 1500, seed = 53), Constant(0.08), 15),
    ("grid", GraphGen.grid(15, 15), Constant(0.25), 10),
    ("knn", GraphGen.knn(250, 4, seed = 54), Constant(0.2), 10),
    ("uniform-p", GraphGen.rmat(200, 1000, seed = 55), UniformHash(0.0, 0.2), 8),
    ("path", TestGens.path(100), Constant(0.9), 5),
    ("star", TestGens.star(64), Constant(0.5), 4),
  )

  test("all selectors pick the seed set of brute-force greedy on sigma-hat") {
    cases.take(4).foreach { case (name, g, model, k) =>
      val numSk = 8
      val sampler = EdgeSampler.forSketches(model)
      val expect = TestRefs.bruteGreedy(g, sampler, numSk, k).toSeq
      val sk = SketchBuilder.build(g, model, numSk, alpha = 1.0)
      selectors.foreach { sel =>
        val got = PaCIM.selectOn(sk, k, sel).seeds.toSeq
        assert(got == expect, s"$name / ${sel.name}")
      }
    }
  }

  test("CELF, P-tree and Win-Tree select identical seeds on every case and alpha") {
    cases.foreach { case (name, g, model, k) =>
      Seq(0.0, 0.15, 1.0).foreach { alpha =>
        val sk = SketchBuilder.build(g, model, 12, alpha)
        val results = selectors.map(sel => PaCIM.selectOn(sk, k, sel).seeds.toSeq)
        results.tail.foreach(r => assert(r == results.head, s"$name alpha=$alpha"))
      }
    }
  }

  test("Thm 4.2: P-tree evaluations <= 2x CELF evaluations") {
    cases.foreach { case (name, g, model, k) =>
      val sk = SketchBuilder.build(g, model, 12, alpha = 1.0)
      val celf = PaCIM.selectOn(sk, k, new CelfSelector())
      val pt = PaCIM.selectOn(sk, k, new PTreeSelector())
      assert(pt.evaluations <= 2 * celf.evaluations,
        s"$name: ptree=${pt.evaluations} celf=${celf.evaluations}")
    }
  }

  test("P-tree stays within 1% of CELF's evaluations on a percolating R-MAT graph") {
    // After the first seed removes the giant component, CELF re-evaluates
    // most vertices in round 1, and unfiltered prefix doubling overshoots
    // that to the next power of two (2079 evaluations against CELF's 1345).
    val g = GraphGen.rmat(2048, 20000, seed = 61)
    val sk = SketchBuilder.build(g, Constant(0.02), 32, alpha = 1.0)
    val celf = PaCIM.selectOn(sk, 10, new CelfSelector())
    val pt = PaCIM.selectOn(sk, 10, new PTreeSelector())
    assert(pt.seeds.sameElements(celf.seeds))
    assert(celf.evaluations <= pt.evaluations && pt.evaluations <= 1.01 * celf.evaluations,
      s"ptree=${pt.evaluations} celf=${celf.evaluations}")
  }

  test("CELF never evaluates more than P-tree's bound or n per round") {
    // CELF is deterministic, so round i's count is the count of a k = i + 1
    // selection minus that of k = i. A round evaluates each of its n - i
    // live vertices at most once.
    cases.foreach { case (name, g, model, k) =>
      val sk = SketchBuilder.build(g, model, 12, alpha = 1.0)
      val totals = (0 to k).map(i => PaCIM.selectOn(sk, i, new CelfSelector()).evaluations)
      totals.sliding(2).zipWithIndex.foreach { case (Seq(before, after), i) =>
        assert(after - before <= g.n - i, s"$name round $i: ${after - before} evaluations, n=${g.n}")
      }
      val pt = PaCIM.selectOn(sk, k, new PTreeSelector())
      assert(totals.last <= pt.evaluations, s"$name: CELF ${totals.last} > P-tree ${pt.evaluations}")
    }
  }

  test("seeds are distinct and within range") {
    cases.foreach { case (name, g, model, k) =>
      val sk = SketchBuilder.build(g, model, 12, alpha = 0.2)
      selectors.foreach { sel =>
        val seeds = PaCIM.selectOn(sk, k, sel).seeds
        assert(seeds.length == k, s"$name/${sel.name}")
        assert(seeds.distinct.length == k, s"$name/${sel.name} duplicates")
        assert(seeds.forall(v => v >= 0 && v < g.n), s"$name/${sel.name}")
      }
    }
  }

  test("greedy marginal gains are non-increasing (submodularity observed)") {
    val (_, g, model, _) = cases.head
    val numSk = 8
    val sampler = EdgeSampler.forSketches(model)
    val sk = SketchBuilder.build(g, model, numSk, 1.0)
    val seeds = PaCIM.selectOn(sk, 10, new CelfSelector()).seeds
    val gains = seeds.indices.map { i =>
      TestRefs.sketchSigma(g, sampler, numSk, seeds.take(i + 1).toSeq) -
        TestRefs.sketchSigma(g, sampler, numSk, seeds.take(i).toSeq)
    }
    gains.sliding(2).foreach { case Seq(a, b) => assert(b <= a); case _ => }
  }

  test("selecting k = n seeds takes every vertex") {
    val g = TestGens.erdosRenyi(30, 60, seed = 56)
    val sk = SketchBuilder.build(g, Constant(0.3), 8, 1.0)
    selectors.foreach { sel =>
      val seeds = PaCIM.selectOn(sk, 30, sel).seeds
      assert(seeds.sorted.toSeq == (0 until 30))
    }
  }

  test("k = 1 returns the vertex with the highest initial score") {
    cases.foreach { case (name, g, model, _) =>
      val sk = SketchBuilder.build(g, model, 12, 1.0)
      val expect = (0 until g.n).maxBy(v => (sk.scores(v), -v))
      selectors.foreach { sel =>
        assert(PaCIM.selectOn(sk, 1, sel).seeds.toSeq == Seq(expect), s"$name/${sel.name}")
      }
    }
  }

  test("on a disconnected clique pair, the two cliques' minima are chosen first (p=1)") {
    // Two cliques {0..9} and {10..24} with p=1: sigma-hat is exact; the
    // greedy picks one vertex of the big clique, then one of the small.
    val edges = (for { i <- 0 until 10; j <- i + 1 until 10 } yield (i, j)) ++
      (for { i <- 10 until 25; j <- i + 1 until 25 } yield (i, j))
    val g = TestGens.fromEdges(25, edges)
    val sk = SketchBuilder.build(g, Constant(1.0), 4, 1.0)
    selectors.foreach { sel =>
      val seeds = PaCIM.selectOn(sk, 2, sel).seeds.toSeq
      assert(seeds == Seq(10, 0), s"${sel.name} got $seeds")
    }
  }

  test("Win-Tree evaluation count is never below CELF's minimum need") {
    // At k = 2 only round 1 evaluates, from the same initial scores. Every
    // vertex whose initial key beats the winner's true key must be
    // evaluated, and so must the winner; CELF evaluates no other vertex.
    // At alpha = 1 no Win-Tree round refreshes.
    cases.foreach { case (name, g, model, _) =>
      val sk = SketchBuilder.build(g, model, 12, 1.0)
      val celf = PaCIM.selectOn(sk, 2, new CelfSelector())
      val wt = PaCIM.selectOn(sk, 2, new WinTreeSelector())
      assert(wt.seeds.sameElements(celf.seeds), name)
      assert(wt.refreshes == 0, name)
      assert(wt.evaluations >= celf.evaluations, s"$name: Win-Tree ${wt.evaluations} < CELF ${celf.evaluations}")
    }
  }

  test("the round loop calls FindMax exactly in rounds 1 until min(k, n) with two or more live vertices") {
    // A FindMax that records its round and the live count, and leaves the
    // root as it is: the build's best score, since nothing is re-scored.
    def run(n: Int, k: Int): (SelectionResult, Seq[(Int, Int)]) = {
      val sk = SketchBuilder.build(TestGens.path(n), Constant(0.5), 4, 1.0)
      val tree = new TournamentTree(sk.scores)
      val calls = Seq.newBuilder[(Int, Int)]
      val res = Selector.rounds(sk, k, tree)(round => calls += ((round, tree.size)))
      (res, calls.result())
    }
    for (n <- Seq(0, 1, 2, 3, 7); k <- Seq(0, 1, 2, n - 1, n, n + 5) if k >= 0) {
      val (res, calls) = run(n, k)
      val rounds = math.min(k, n)
      assert(calls == (1 until rounds).filter(r => n - r >= 2).map(r => (r, n - r)), s"n=$n k=$k")
      assert(res.seeds.length == rounds && res.seeds.distinct.length == rounds, s"n=$n k=$k")
      assert(res.evaluations == 0 && res.refreshes == 0, s"n=$n k=$k")
    }
    intercept[IllegalArgumentException](run(3, -1))
  }

  test("every selector's structure bytes are the tree's ids plus its per-vertex arrays") {
    // 1000 vertices: 1024 leaves, 2047 node ids of 4 bytes. CELF adds n
    // round flags (4 bytes); P-tree adds nothing, as Win-Tree (WinTreeSpec).
    // The scores the trees key on belong to the sketch set.
    val sk = SketchBuilder.build(TestGens.erdosRenyi(1000, 2000, seed = 73), Constant(0.2), 4, 1.0)
    val ids = 4L * 2047
    assert(PaCIM.selectOn(sk, 2, new CelfSelector()).structBytes == ids + 4L * 1000)
    assert(PaCIM.selectOn(sk, 2, new PTreeSelector()).structBytes == ids)
  }
}
