package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.ErSynth
import repro.data.ErSynth.DomainSpec
import repro.er.{ErDataset, LabeledPair, Prf, TopKEval}
import repro.exp.Experiments
import repro.ir._
import repro.jobs.Jobs
import scala.collection.mutable

/** The generated inputs of one workload, collected once per set-up. */
final case class Inputs(ds: ErDataset, train: Seq[LabeledPair], test: Seq[LabeledPair],
                        truth: Set[(Long, Long)]) {
  lazy val aIds: Set[Long] = ds.a.select("id").collect().map(_.getLong(0)).toSet
  lazy val bIds: Set[Long] = ds.b.select("id").collect().map(_.getLong(0)).toSet
}

/** What one round of a workload hands back: its end-to-end quality figure
  * and the outputs that [[Workload.check]] and [[Workload.diagnose]] read.
  */
trait RoundOut { def matchF1: Double }

/** One benchmark workload: a domain, a pipeline round over it, the checks
  * of that round's outputs, and the traced-only diagnostics.
  */
sealed trait Workload {
  def name: String
  def spec: DomainSpec
  /** Nominal seconds of one round in a fresh JVM on a 4-core machine; with
    * `--seconds` it sets the round count.
    */
  def roundS: Double
  /** A smaller domain to run one untimed round on before the measured ones. */
  def warmUp: Option[DomainSpec] = None
  def run(spark: SparkSession, in: Inputs, seed: Long, tr: Trace): RoundOut
  def check(in: Inputs, out: RoundOut): Unit
  def diagnose(in: Inputs, out: RoundOut, tr: Trace): Unit
}

object Workloads {

  val Cfg: VaerConfig = Experiments.DefaultCfg
  /** Table VIII's AL settings (see Experiments.table8). */
  val AlCfg: VaerConfig = Cfg.copy(matchMinSteps = 300, kdeSamplesPerPair = 50)
  val K: Int = Cfg.topK

  val all: Seq[Workload] = Seq(Supervised, Active, Blocking)
  def byName(n: String): Workload =
    all.find(_.name == n).getOrElse(throw new IllegalArgumentException(s"unknown workload $n"))

  /** A Table II domain with cardinalities and split sizes scaled by `f`. */
  def scaled(name: String, f: Double): DomainSpec = {
    val sp = ErSynth.spec(name)
    def s(n: Int) = math.max(1, math.round(n * f).toInt)
    sp.copy(cardA = s(sp.cardA), cardB = s(sp.cardB), nDup = s(sp.nDup),
      trainSize = s(sp.trainSize), testSize = s(sp.testSize))
  }

  /** A model seed derived from the workload seed. */
  def derive(seed: Long, salt: Long): Long = (seed * 0x9E3779B97F4A7C15L) ^ salt

  /** Set-up: the program's Spark session, the generated tables, and the
    * labelled pairs and ground truth collected to the driver.
    */
  def setup(spec: DomainSpec, seed: Long, tr: Trace): (SparkSession, Inputs) = {
    val spark = tr.span("spark.session")(Jobs.session())
    val ds    = tr.span("data.generate")(ErSynth.generate(spark, spec, seed))
    val in    = tr.span("data.collect")(inputsOf(ds))
    tr.count("data.tuples", spec.cardA + spec.cardB)
    (spark, in)
  }

  def inputsOf(ds: ErDataset): Inputs =
    Inputs(ds, Vaer.collectPairs(ds.train), Vaer.collectPairs(ds.test),
      ds.matches.collect().map(r => (r.getLong(0), r.getLong(1))).toSet)

  private def lsaIr(seed: Long) = new LsaIr(Cfg.irDim, derive(seed, 0x15AL))

  private def lsa(spark: SparkSession, in: Inputs, seed: Long, tr: Trace): IrSet = {
    val irs = tr.span("ir.lsa")(lsaIr(seed).compute(in.ds)(spark))
    tr.count("ir.values", irs.irs.size * irs.arity)
    irs
  }

  private def trainVae(irs: IrSet, seed: Long, tr: Trace): VaeModel = {
    val vae = tr.span("vae.train")(Vaer.trainVae(irs, Cfg, seed = derive(seed, 0x7AEL)))
    tr.count("vae.samples", irs.irs.size * irs.arity)
    vae
  }

  private def encode(vae: VaeModel, irs: IrSet, tr: Trace): Map[(String, Long), TupleRepr] = {
    val reprs = tr.span("represent.encode")(Represent.encodeAll(vae, irs))
    tr.count("represent.tuples", reprs.size)
    reprs
  }

  private def bootstrap(spark: SparkSession, reprs: Map[(String, Long), TupleRepr], in: Inputs,
                        seed: Long, tr: Trace): AlBootstrap.Bootstrap = {
    val b = tr.span("bootstrap.run") {
      AlBootstrap.run(spark, reprs, K, verifyPos = Some(in.truth.contains), lshSeed = derive(seed, 0x415EEDL))
    }
    tr.count("bootstrap.pool_pairs", b.pos.length + b.neg.length + b.unlabeled.length)
    tr.count("bootstrap.pos_seeds", b.pos.length)
    tr.count("bootstrap.neg_seeds", b.neg.length)
    tr.count("bootstrap.removed_fp", b.removedFalsePositives)
    b
  }

  /** Traced-only VAE diagnostics over every training sample: mean
    * reconstruction SSE and KL per sample, and the latent units whose
    * posterior mean varies across inputs (variance > 0.01), which counts
    * the units that escaped posterior collapse.
    */
  def vaeDiagnostics(vae: VaeModel, irs: IrSet, tr: Trace): Unit = {
    val x = repro.nn.Mat.fromRows(irs.irs.valuesIterator.flatten.toIndexedSeq)
    val (mu, sigma) = vae.encodeBatch(x)
    val recon = vae.decodeBatch(mu)
    val n = x.rows.toDouble
    var sse = 0.0; var kl = 0.0
    var i = 0
    while (i < x.data.length) { val d = recon.data(i) - x.data(i); sse += d * d; i += 1 }
    i = 0
    while (i < mu.data.length) {
      val m = mu.data(i); val s = sigma.data(i)
      kl += -0.5 * (1 + math.log(s * s) - m * m - s * s)
      i += 1
    }
    val active = (0 until mu.cols).count { j =>
      val col = (0 until mu.rows).map(r => mu(r, j))
      val mean = col.sum / col.length
      col.map(v => (v - mean) * (v - mean)).sum / col.length > 0.01
    }
    tr.count("vae.recon", sse / n)
    tr.count("vae.kl", kl / n)
    tr.count("vae.active_units", active)
  }

  /** Traced-only Alg. 1 diagnostics: share of the true matches the pool
    * holds, share of the exact Euclidean top-k A→B neighbours it holds, and
    * the share of raw seed positives that were true matches.
    */
  def bootstrapDiagnostics(b: AlBootstrap.Bootstrap, reprs: Map[(String, Long), TupleRepr],
                           truth: Set[(Long, Long)], tr: Trace): Unit = {
    val pool = (b.pos ++ b.neg ++ b.unlabeled).toSet
    tr.count("bootstrap.pool_recall", truth.count(pool.contains).toDouble / math.max(1, truth.size))
    val exact = Checks.euclidNearest(reprs, "A", "B", K).toSeq.flatMap { case (a, bs) => bs.map(b => (a, b)) }
    tr.count("bootstrap.knn_overlap", exact.count(pool.contains).toDouble / math.max(1, exact.size))
    val raw = b.pos.length + b.removedFalsePositives
    tr.count("bootstrap.seed_purity", if (raw == 0) 0.0 else b.pos.length.toDouble / raw)
  }

  // ------------------------------------------------------------ supervised

  final case class SupervisedOut(irs: IrSet, matcher: Siamese, vae: VaeModel, prf: Prf) extends RoundOut {
    def matchF1: Double = prf.f1
  }

  /** Table V path on Cit. 2: one long Siamese training on the full train
    * set, no LSH, KDE or active learning.
    */
  object Supervised extends Workload {
    val name = "supervised"
    val spec: DomainSpec = scaled("Cit. 2", 0.125)
    val roundS = 17.0

    def run(spark: SparkSession, in: Inputs, seed: Long, tr: Trace): RoundOut = {
      val irs = lsa(spark, in, seed, tr)
      val vae = trainVae(irs, seed, tr)
      val m = tr.span("siamese.train")(Vaer.trainMatcher(vae, irs, in.train, Cfg, seed = derive(seed, 0x51AL)))
      tr.count("siamese.train_pairs", in.train.length)
      val prf = tr.span("siamese.predict")(Vaer.evaluateMatcher(m, irs, in.test))
      tr.count("siamese.predicted_pairs", in.test.length)
      SupervisedOut(irs, m, vae, prf)
    }

    def check(in: Inputs, out: RoundOut): Unit = out match {
      case o: SupervisedOut =>
        Checks.matcherScore(in.test, o.matcher.predict(Vaer.toExamples(o.irs, in.test)), o.prf)
    }

    def diagnose(in: Inputs, out: RoundOut, tr: Trace): Unit = out match {
      case o: SupervisedOut => vaeDiagnostics(o.vae, o.irs, tr)
    }
  }

  // ---------------------------------------------------------------- active

  final case class ActiveOut(irs: IrSet, vae: VaeModel, reprs: Map[(String, Long), TupleRepr],
                             boot: AlBootstrap.Bootstrap, al: ActiveLearner.AlResult,
                             calls: Seq[((Long, Long), Int)], batches: Seq[Int],
                             poolProbs: Array[Double], prf: Prf) extends RoundOut {
    def matchF1: Double = prf.f1
  }

  /** Oracle calls closer together than this belong to one batch: between
    * batches Alg. 2 retrains the matcher for at least `matchMinSteps` steps.
    */
  val BatchGapS = 0.05

  /** Table VIII path on Rest.: Alg. 1, then Alg. 2 with the ground-truth
    * oracle to the label budget, then the final matcher scores the whole
    * candidate pool and the test set.
    */
  object Active extends Workload {
    val name = "active"
    /** Half-size tables, but the full Table II test split: Alg. 2 never
      * reads the split, and F1 over 189 test pairs varies less by seed.
      */
    val spec: DomainSpec = scaled("Rest.", 0.5).copy(testSize = ErSynth.spec("Rest.").testSize)
    val roundS = 30.0
    /** Three batches of Alg. 2; see the README for why not 100 labels. */
    val Budget = 24

    def run(spark: SparkSession, in: Inputs, seed: Long, tr: Trace): RoundOut = {
      val start = tr.now()
      val irs   = lsa(spark, in, seed, tr)
      val vae   = trainVae(irs, seed, tr)
      val reprs = encode(vae, irs, tr)
      val boot  = bootstrap(spark, reprs, in, seed, tr)

      val calls = mutable.ArrayBuffer.empty[((Long, Long), Int)]
      val times = mutable.ArrayBuffer.empty[Double]
      val oracle: ((Long, Long)) => Int = { p =>
        times += tr.now()
        val label = if (in.truth.contains(p)) 1 else 0
        calls += ((p, label))
        label
      }
      val alStart = tr.now()
      val al = tr.span("al.run") {
        ActiveLearner.run(AlCfg, vae, irs, reprs, boot, oracle, Budget, seed = derive(seed, 0xA1L))
      }
      val alEnd = tr.now()

      val pool = boot.pos ++ boot.neg ++ boot.unlabeled
      val poolProbs = tr.span("siamese.predict") {
        al.matcher.predict(pool.toIndexedSeq.map(p => PairExample(irs("A", p._1), irs("B", p._2), 0)))
      }
      tr.count("siamese.predicted_pairs", pool.length)
      val prf = tr.span("siamese.predict")(Vaer.evaluateMatcher(al.matcher, irs, in.test))
      tr.count("siamese.predicted_pairs", in.test.length)

      // Batches and the oracle's idle time between them, from its call times.
      val breaks = times.indices.drop(1).filter(i => times(i) - times(i - 1) > BatchGapS)
      val firsts = 0 +: breaks
      val lasts  = breaks.map(_ - 1) :+ (times.length - 1)
      val batches = firsts.zip(lasts).map { case (f, l) => l - f + 1 }
      if (times.nonEmpty) {
        val waits = firsts.drop(1).zip(lasts).map { case (f, l) => times(f) - times(l) } :+ (alEnd - times.last)
        tr.count("al.first_batch_s", times.head - start)
        tr.count("al.first_wait_s", times.head - alStart)
        tr.count("al.wait_s", Stats.median(waits))
      }
      tr.count("al.iterations", batches.length)
      tr.count("al.labels", calls.length)
      tr.count("al.labels_pos", calls.count(_._2 == 1))
      ActiveOut(irs, vae, reprs, boot, al, calls.toSeq, batches, poolProbs, prf)
    }

    def check(in: Inputs, out: RoundOut): Unit = out match {
      case o: ActiveOut =>
        Checks.oracleUse(o.calls, o.batches, Budget, AlCfg.alSamplesPerIter,
          o.boot.pos, o.boot.neg, o.boot.unlabeled, o.al.labeledPos, o.al.labeledNeg)
        Checks.ensure(o.poolProbs.length == o.boot.pos.length + o.boot.neg.length + o.boot.unlabeled.length &&
          o.poolProbs.forall(p => p >= 0.0 && p <= 1.0), "pool scores are not one probability per pool pair")
        Checks.matcherScore(in.test, o.al.matcher.predict(Vaer.toExamples(o.irs, in.test)), o.prf)
    }

    def diagnose(in: Inputs, out: RoundOut, tr: Trace): Unit = out match {
      case o: ActiveOut =>
        vaeDiagnostics(o.vae, o.irs, tr)
        bootstrapDiagnostics(o.boot, o.reprs, in.truth, tr)
    }
  }

  // -------------------------------------------------------------- blocking

  final case class BlockingOut(reprs: Map[(String, Long), TupleRepr], vae: VaeModel, irs: IrSet,
                               ab: Map[Long, Seq[Long]], ba: Map[Long, Seq[Long]], prf: Prf,
                               boot: AlBootstrap.Bootstrap) extends RoundOut {
    def matchF1: Double = prf.f1
  }

  /** Table IV and Alg. 1 on Cit. 2: all four IR providers with a raw-IR
    * top-k search each, the LSA VAE with W₂² re-ranked search, and the
    * bootstrap candidate pool. No Siamese training.
    */
  object Blocking extends Workload {
    val name = "blocking"
    val spec: DomainSpec = scaled("Cit. 2", 0.125)
    val roundS = 20.0
    /** Spark's first TF-IDF and LSH jobs in a fresh JVM take over half of
      * a cold round here, and their time swings by a quarter or more on a
      * busy 4-core host. A quarter-size round first leaves the measured
      * round to the program's own IR, search and LSH work.
      */
    override val warmUp: Option[DomainSpec] = Some(scaled("Cit. 2", 0.125 / 4))

    def run(spark: SparkSession, in: Inputs, seed: Long, tr: Trace): RoundOut = {
      val d = Cfg.irDim
      val providers = Seq(lsaIr(seed), new W2vIr(d), new BertIr(d, derive(seed, 0xBE27L)),
        new EmbdiIr(d, derive(seed, 0xE3BD1L)))
      val irSets = providers.map { p =>
        val irs = tr.span(s"ir.${p.name.toLowerCase}")(p.compute(in.ds)(spark))
        tr.count("ir.values", irs.irs.size * irs.arity)
        val prf = tr.span("search.ir") {
          val (ab, ba) = TopKEval.neighbours(Represent.irAsRepr(irs), K, rerankW2 = false)
          TopKEval.prfAtK(in.test, ab, ba)
        }
        tr.count("search.queries", irs.irs.size)
        tr.count(s"search.ir_recall_at_10.${p.name.toLowerCase}", prf.r)
        irs
      }
      val irs   = irSets.head
      val vae   = trainVae(irs, seed, tr)
      val reprs = encode(vae, irs, tr)
      val (ab, ba, prf) = tr.span("search.vaer") {
        val (ab, ba) = TopKEval.neighbours(reprs, K, rerankW2 = true)
        (ab, ba, TopKEval.prfAtK(in.test, ab, ba))
      }
      tr.count("search.queries", reprs.size)
      tr.count("search.recall_at_10", prf.r)
      val boot = bootstrap(spark, reprs, in, seed, tr)
      BlockingOut(reprs, vae, irs, ab, ba, prf, boot)
    }

    def check(in: Inputs, out: RoundOut): Unit = out match {
      case o: BlockingOut =>
        Checks.neighbours(o.ab, Checks.bruteNeighbours(o.reprs, "A", "B", K), "A->B")
        Checks.neighbours(o.ba, Checks.bruteNeighbours(o.reprs, "B", "A", K), "B->A")
        Checks.topKScore(in.test, o.ab, o.ba, o.prf)
        Checks.pool(o.boot.pos, o.boot.neg, o.boot.unlabeled, in.aIds, in.bIds, o.reprs, in.truth)
    }

    def diagnose(in: Inputs, out: RoundOut, tr: Trace): Unit = out match {
      case o: BlockingOut =>
        vaeDiagnostics(o.vae, o.irs, tr)
        bootstrapDiagnostics(o.boot, o.reprs, in.truth, tr)
    }
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }
}
